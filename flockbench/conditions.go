package main

import "runtime"

// conditions records what a result was measured under (dataDir must
// exist). Results taken under different conditions must not be compared.
func conditions(cfg config, clients int, dataDir string) map[string]any {
	return map[string]any{
		"workload":    cfg.workload,
		"seed":        cfg.seed,
		"seconds":     cfg.seconds,
		"trace":       cfg.trace,
		"clients":     clients,
		"loop":        "closed",
		"rows":        cfg.rows,
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go_version":  runtime.Version(),
		"goos_goarch": runtime.GOOS + "/" + runtime.GOARCH,
		"wal_sync":    "always",
		"data_dir_fs": filesystemOf(dataDir),
	}
}
