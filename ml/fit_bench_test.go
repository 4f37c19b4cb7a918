package ml

import (
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkFit times training at the voter pipeline's scale: 112,500
// voter-shaped rows × 6 features, depth 10 — one tree, and a 16-tree
// forest at one worker and at GOMAXPROCS workers.
func BenchmarkFit(b *testing.B) {
	X, y := voterShaped(150_000, 2751, 6, 1)
	rows := float64(len(y))
	b.Run("tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t := &DecisionTree{MaxDepth: 10, MinSamplesLeaf: 1}
			if err := t.Fit(X, y); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
	})
	workers := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		workers = append(workers, p)
	}
	for _, w := range workers {
		b.Run(fmt.Sprintf("forest16/workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f := NewRandomForest(16)
				f.MaxDepth = 10
				f.Seed = 1
				if err := f.FitWorkers(X, y, w); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
		})
	}
}
