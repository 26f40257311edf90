//go:build linux

package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// filesystemOf names the filesystem holding path, from its statfs magic.
func filesystemOf(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x2FC12FC1:
		return "zfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// cpuTicks reads the steal and total jiffies of all CPUs from /proc/stat.
// On a virtual machine, steal is time the hypervisor ran something else
// while the guest wanted the CPU.
func cpuTicks() (steal, total uint64, ok bool) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i == 7 {
			steal = v
		}
		if i < 8 { // guest time is already counted in user and nice
			total += v
		}
	}
	return steal, total, true
}
