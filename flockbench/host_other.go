//go:build !linux

package main

// filesystemOf is only implemented on Linux.
func filesystemOf(string) string { return "unknown" }

// cpuTicks is only implemented on Linux.
func cpuTicks() (steal, total uint64, ok bool) { return 0, 0, false }
