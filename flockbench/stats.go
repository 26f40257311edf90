package main

import (
	"sort"
	"time"
)

// Host noise on a small VM (CPU steal while the hypervisor serves other
// guests) arrives in bursts of a few seconds. A run therefore reports
// medians over consecutive chunks of its reads rather than one figure over
// the whole run, so a burst moves a few chunks and not the result.
const (
	chunkReads = 1000 // reads per chunk at least, so p99 has ten beyond it
	maxChunks  = 20
)

// summary is a phase's end-to-end figures.
type summary struct {
	throughput  float64 // statements completed per second
	p50, p90    float64 // read latency, ms
	tail, tailQ float64 // read latency at quantile tailQ, ms
	chunks      int
}

// summarize splits the reads, in completion order, into up to maxChunks
// chunks of at least chunkReads and returns the median over chunks of each
// figure. Throughput counts every statement (writes too) that completed
// within a chunk's time span. With fewer than 2*chunkReads reads the whole
// phase is one chunk lasting wall.
func summarize(reads, writes []completion, wall time.Duration) summary {
	byTime := func(ts []completion) []completion {
		out := append([]completion(nil), ts...)
		sort.Slice(out, func(i, j int) bool { return out[i].at < out[j].at })
		return out
	}
	reads = byTime(reads)
	all := byTime(append(append([]completion(nil), reads...), writes...))
	k := min(maxChunks, max(1, len(reads)/chunkReads))
	var thr, p50, p90, tail []float64
	var tailQ float64
	prevEnd, prevAll := time.Duration(0), 0
	for c := 0; c < k; c++ {
		chunk := reads[c*len(reads)/k : (c+1)*len(reads)/k]
		end := chunk[len(chunk)-1].at
		if k == 1 {
			end = wall
		}
		nAll := sort.Search(len(all), func(i int) bool { return all[i].at > end })
		if end > prevEnd {
			thr = append(thr, float64(nAll-prevAll)/(end-prevEnd).Seconds())
		}
		prevEnd, prevAll = end, nAll
		ms := latenciesMS(chunk)
		tailQ = tailQuantile(len(ms))
		p50 = append(p50, quantile(ms, 0.50))
		p90 = append(p90, quantile(ms, 0.90))
		tail = append(tail, quantile(ms, tailQ))
	}
	return summary{throughput: median(thr), p50: median(p50), p90: median(p90),
		tail: median(tail), tailQ: tailQ, chunks: k}
}

// tailQuantile is the quantile reported as the latency tail: p99 once there
// are 1000 samples, else the highest quantile with at least ten samples
// beyond it.
func tailQuantile(n int) float64 {
	if n >= 1000 {
		return 0.99
	}
	return max(0.5, 1-10/float64(n))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile interpolates linearly between the closest ranks of sorted s.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// latenciesMS returns the latencies in milliseconds, sorted.
func latenciesMS(ts []completion) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = float64(t.lat) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}
