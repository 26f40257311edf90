package onnx_test

import (
	"testing"

	"repro/internal/onnx"
	"repro/internal/workload"
)

// BenchmarkTreeKernel scores real customers rows with the churn model
// flock-serve and flockbench deploy (50 depth-4 trees over scaled
// numerics, a one-hot region and 32 hashed text buckets). rows=4096 is one
// PREDICT morsel; rows=1 is a point PREDICT, cycling over the same rows.
// ns/row includes featurization, which every PREDICT pays too.
func BenchmarkTreeKernel(b *testing.B) {
	pipe, err := workload.TrainScoringPipeline(4000, 42, 50, true)
	if err != nil {
		b.Fatal(err)
	}
	g, err := onnx.Export(pipe)
	if err != nil {
		b.Fatal(err)
	}
	sess, err := onnx.NewSession(g)
	if err != nil {
		b.Fatal(err)
	}
	const n = 4096
	f, _ := workload.ScoringFrame(workload.ScoringConfig{Rows: n, Seed: 7, Regions: 6, WithText: true})
	batch, err := onnx.BatchFromFrame(g, f)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("rows=4096", func(b *testing.B) {
		out := make([]float64, n)
		b.ReportAllocs()
		for b.Loop() {
			if err := sess.RunInto(batch, out); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
	})

	b.Run("rows=1", func(b *testing.B) {
		singles := make([]*onnx.Batch, n)
		for r := range singles {
			one := &onnx.Batch{N: 1, Cols: make([]onnx.Column, len(batch.Cols))}
			for c, col := range batch.Cols {
				if col.Nums != nil {
					one.Cols[c].Nums = col.Nums[r : r+1]
				} else {
					one.Cols[c].Strs = col.Strs[r : r+1]
				}
			}
			singles[r] = one
		}
		out := make([]float64, 1)
		b.ReportAllocs()
		i := 0
		for b.Loop() {
			if err := sess.RunInto(singles[i%n], out); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}
