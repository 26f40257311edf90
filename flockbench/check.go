package main

import (
	"fmt"
	"math"

	"repro/internal/onnx"
	"repro/internal/workload"
)

// reference holds the expected outputs, computed at set-up outside timing
// from the generator columns and a native onnx.Session over the deployed
// graph — never from the engine under test.
type reference struct {
	scores  []float64          // by id-1: the churn score of customer id
	regionN map[string]int64   // batchSQL's per-region count
	regionS map[string]float64 // batchSQL's per-region mean score
	batch   *onnx.Batch        // every customer as the model's input columns
}

// buildReference scores the whole table natively. g is the deployed graph.
func buildReference(g *onnx.Graph, rows int) (*reference, error) {
	cfg := workload.ScoringConfig{Rows: rows, Seed: tableSeed, Regions: tableRegions, WithText: true}
	_, ages, income, tenure, regions, notes, _ := workload.ScoringColumns(cfg)
	cols := map[string]onnx.Column{
		"age": {Nums: ages}, "income": {Nums: income}, "tenure": {Nums: tenure},
		"region": {Strs: regions}, "notes": {Strs: notes},
	}
	b := &onnx.Batch{N: rows, Cols: make([]onnx.Column, len(g.Inputs))}
	for i, in := range g.Inputs {
		c, ok := cols[in.Name]
		if !ok {
			return nil, fmt.Errorf("reference: model input %q is not a customers column", in.Name)
		}
		b.Cols[i] = c
	}
	sess, err := onnx.NewSession(g)
	if err != nil {
		return nil, fmt.Errorf("reference session: %w", err)
	}
	ref := &reference{
		scores:  make([]float64, rows),
		regionN: map[string]int64{},
		regionS: map[string]float64{},
		batch:   b,
	}
	if err := sess.RunInto(b, ref.scores); err != nil {
		return nil, fmt.Errorf("reference scoring: %w", err)
	}
	sums := map[string]float64{}
	for i := 0; i < rows; i++ {
		if income[i] > batchIncomeFloor {
			ref.regionN[regions[i]]++
			sums[regions[i]] += ref.scores[i]
		}
	}
	for r, n := range ref.regionN {
		ref.regionS[r] = sums[r] / float64(n)
	}
	return ref, nil
}

// batchTolerance bounds |s - reference| for the grouped mean: the engine
// sums in a different order than the reference.
const batchTolerance = 1e-9

// check verifies one statement's rows (nil error = correct). rows are the
// decoded result rows; affected is the DML row count.
func (ref *reference) check(s stmt, rows [][]any, affected int64) error {
	switch s.kind {
	case kindPoint:
		if len(rows) != 1 || len(rows[0]) != 2 {
			return fmt.Errorf("point read of id %d: want 1 row of 2 columns, got %v", s.id, rows)
		}
		id, ok := rows[0][0].(int64)
		if !ok || id != s.id {
			return fmt.Errorf("point read of id %d returned id %v", s.id, rows[0][0])
		}
		score, ok := asFloat(rows[0][1])
		if want := ref.scores[s.id-1]; !ok || score != want {
			return fmt.Errorf("point read of id %d: score %v, native reference %v", s.id, rows[0][1], want)
		}
	case kindBatch:
		if len(rows) != len(ref.regionN) {
			return fmt.Errorf("batch scoring: %d regions, reference has %d", len(rows), len(ref.regionN))
		}
		for _, r := range rows {
			if len(r) != 3 {
				return fmt.Errorf("batch scoring: row %v has %d columns", r, len(r))
			}
			region, _ := r[0].(string)
			n, nok := r[1].(int64)
			mean, sok := asFloat(r[2])
			wantN, known := ref.regionN[region]
			switch {
			case !known:
				return fmt.Errorf("batch scoring: unexpected region %v", r[0])
			case !nok || n != wantN:
				return fmt.Errorf("batch scoring: region %s n=%v, reference %d", region, r[1], wantN)
			case !sok || math.Abs(mean-ref.regionS[region]) > batchTolerance:
				return fmt.Errorf("batch scoring: region %s s=%v, reference %v", region, r[2], ref.regionS[region])
			}
		}
	case kindInsert:
		if affected != 1 {
			return fmt.Errorf("insert of id %d affected %d rows", s.id, affected)
		}
	}
	return nil
}

// asFloat accepts an int64 too: the SDK decodes an integral JSON number
// (a score of exactly 0 or 1) as int64.
func asFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case int64:
		return float64(x), true
	}
	return 0, false
}
