package ml

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// RandomForest is a bagged ensemble of CART trees with per-split
// feature subsampling — the model the paper trains in Listing 1
// (sklearn.ensemble.RandomForestClassifier analog). Trees are fitted
// in parallel across a worker pool.
type RandomForest struct {
	// NEstimators is the number of trees (default 16).
	NEstimators int
	// MaxDepth bounds each tree's depth (default 12; 0 = unbounded).
	MaxDepth int
	// MinSamplesLeaf is the minimum rows per leaf (default 1).
	MinSamplesLeaf int
	// MaxFeatures is the per-split feature budget; 0 = sqrt(p).
	MaxFeatures int
	// Seed makes training deterministic.
	Seed int64
	// Workers bounds fitting parallelism; 0 = NumCPU.
	Workers int

	trees   []*DecisionTree
	classes []int
	nfeat   int
	// prep caches the traversal-optimized form used by the batch
	// prediction path; fitting resets it.
	prep atomic.Pointer[preparedForest]
}

// NewRandomForest returns a forest with n trees and common defaults.
func NewRandomForest(n int) *RandomForest {
	return &RandomForest{NEstimators: n, MaxDepth: 12, MinSamplesLeaf: 1}
}

// Name implements Classifier.
func (f *RandomForest) Name() string { return "random_forest" }

// Classes implements Classifier.
func (f *RandomForest) Classes() []int { return f.classes }

// NumTrees returns the number of fitted trees.
func (f *RandomForest) NumTrees() int { return len(f.trees) }

// Fit implements Classifier. Each tree is trained on a bootstrap
// sample of the rows with sqrt(p) feature subsampling per split.
func (f *RandomForest) Fit(X [][]float64, y []int) error {
	return f.FitWorkers(X, y, f.Workers)
}

// FitWorkers is Fit with an explicit worker count: every feature is
// sorted once (see forestData), the trees are partitioned into
// contiguous ranges, one range per worker, and the partials merge in
// tree order. Per-tree seeds derive from the absolute tree index, so
// the fitted forest is byte-identical at any worker count.
func (f *RandomForest) FitWorkers(X [][]float64, y []int, workers int) error {
	if f.NEstimators <= 0 {
		f.NEstimators = 16
	}
	est := f.NEstimators
	workers = resolveWorkers(workers, est)
	d, err := newForestData(X, y, workers)
	if err != nil {
		f.trees = nil
		return err
	}
	parts := make([]*ForestPartial, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			parts[w] = f.fitRange(d, w*est/workers, (w+1)*est/workers)
		}(w)
	}
	wg.Wait()
	return f.MergePartials(parts)
}

// ForestPartial holds the fitted trees of one contiguous tree range —
// the per-worker partial state of parallel forest training. Because
// every tree's bootstrap and split seeds derive from its absolute
// index, a partial's bytes depend only on its range, never on which
// worker produced it or what else ran concurrently.
type ForestPartial struct {
	lo, hi  int
	trees   []*DecisionTree
	classes []int
	nfeat   int
}

// FitPartial fits trees [lo, hi) on X, y and returns them as a
// mergeable partial. It does not mutate the receiver beyond reading
// hyperparameters, so concurrent partial fits on one forest are safe.
func (f *RandomForest) FitPartial(X [][]float64, y []int, lo, hi int) (*ForestPartial, error) {
	if lo < 0 || hi < lo {
		return nil, fmt.Errorf("ml: invalid tree range [%d, %d)", lo, hi)
	}
	d, err := newForestData(X, y, 1)
	if err != nil {
		return nil, err
	}
	return f.fitRange(d, lo, hi), nil
}

// forestData is a forest's training input, prepared once and shared
// read-only by every tree and worker: each feature's attribute list
// over all rows (see sortedList).
type forestData struct {
	lists   []attrList
	classes []int
}

// newForestData validates X, y and sorts the features on up to
// workers goroutines.
func newForestData(X [][]float64, y []int, workers int) (*forestData, error) {
	if err := validateTreeXY(X, y); err != nil {
		return nil, err
	}
	classes, cls := classIndices(y)
	d := &forestData{lists: make([]attrList, len(X)), classes: classes}
	parallelMorsels(workers, len(X), func(f int) { d.lists[f] = sortedList(X[f], cls) })
	return d, nil
}

// fitRange fits trees [lo, hi) one after another on one builder.
func (f *RandomForest) fitRange(d *forestData, lo, hi int) *ForestPartial {
	nfeat, n := len(d.lists), len(d.lists[0].row)
	part := &ForestPartial{
		lo: lo, hi: hi,
		trees:   make([]*DecisionTree, 0, hi-lo),
		classes: d.classes,
		nfeat:   nfeat,
	}
	lists := make([]attrList, nfeat)
	for f := range lists {
		lists[f] = newAttrList(n)
	}
	b := newTreeBuilder(lists, n, len(d.classes))
	s := newBootstrapper(n)
	mtry := f.mtry(nfeat)
	for ti := lo; ti < hi; ti++ {
		t := &DecisionTree{
			MaxDepth:       f.MaxDepth,
			MinSamplesLeaf: f.MinSamplesLeaf,
			MaxFeatures:    mtry,
			Seed:           f.Seed + int64(ti)*7919,
		}
		s.fill(b, d, newRNG(f.Seed+int64(ti)*104729+1))
		b.grow(t, d.classes)
		part.trees = append(part.trees, t)
	}
	return part
}

// bootstrapper derives a tree's attribute lists from the forest's
// shared ones in O(n) per feature. A tree's bootstrap is n draws with
// replacement (draw i takes row rng.Intn(n)); its lists hold each
// drawn row once, weighted by its number of draws, so they are about
// 63% as long as the draws. A row drawn k times weighs what k entries
// of equal value and class would, and no split falls between equal
// values, so the fitted tree is the one its materialized draws give.
// Walking a feature's shared list and keeping the drawn rows emits the
// tree's list already sorted. A row's count can reach n, so weights
// are full int32s.
type bootstrapper struct {
	count []int32 // draws per row
}

func newBootstrapper(n int) *bootstrapper {
	return &bootstrapper{count: make([]int32, n)}
}

// fill draws one bootstrap sample with r and writes its attribute
// lists into b.
func (s *bootstrapper) fill(b *treeBuilder, d *forestData, r *rng) {
	n := len(s.count)
	clear(s.count)
	for range n {
		s.count[r.Intn(n)]++
	}
	for f, g := range d.lists {
		l := &b.lists[f]
		l.resize(n)
		k := 0
		for j, row := range g.row {
			if c := s.count[row]; c > 0 {
				l.row[k], l.val[k], l.cls[k], l.wt[k] = row, g.val[j], g.cls[j], c
				k++
			}
		}
		l.resize(k)
	}
}

// MergePartials assembles partial fits covering tree ranges
// [0, NEstimators) contiguously into the fitted forest. It validates
// every partial before changing the forest, so a rejected merge leaves
// it as it was.
func (f *RandomForest) MergePartials(parts []*ForestPartial) error {
	if len(parts) == 0 {
		return fmt.Errorf("ml: no forest partials to merge")
	}
	ordered := append([]*ForestPartial(nil), parts...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].lo < ordered[j].lo })
	trees := make([]*DecisionTree, 0, f.NEstimators)
	next := 0
	for _, p := range ordered {
		if p.lo != next {
			return fmt.Errorf("ml: forest partials not contiguous at tree %d", next)
		}
		if p.nfeat != ordered[0].nfeat || !equalInts(p.classes, ordered[0].classes) {
			return fmt.Errorf("ml: forest partials trained on different data shapes")
		}
		trees = append(trees, p.trees...)
		next = p.hi
	}
	if next != f.NEstimators {
		return fmt.Errorf("ml: forest partials cover %d of %d trees", next, f.NEstimators)
	}
	f.classes = ordered[0].classes
	f.nfeat = ordered[0].nfeat
	f.trees = trees
	f.prep.Store(nil)
	return nil
}

// mtry resolves the per-split feature budget (sqrt(p) by default).
func (f *RandomForest) mtry(nfeat int) int {
	mtry := f.MaxFeatures
	if mtry <= 0 {
		mtry = int(math.Sqrt(float64(nfeat)))
		if mtry < 1 {
			mtry = 1
		}
	}
	return mtry
}

// equalInts reports element-wise equality.
func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// PredictProba implements Classifier: the average of the trees' leaf
// distributions.
func (f *RandomForest) PredictProba(X [][]float64) ([][]float64, error) {
	if len(f.trees) == 0 {
		return nil, ErrNotFitted
	}
	n, err := validateX(X)
	if err != nil {
		return nil, err
	}
	if len(X) != f.nfeat {
		return nil, fmt.Errorf("ml: forest fitted on %d features, got %d", f.nfeat, len(X))
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, len(f.classes))
	}
	buf := make([]float64, 0, f.nfeat)
	for r := 0; r < n; r++ {
		buf = row(X, r, buf)
		acc := out[r]
		for _, t := range f.trees {
			p := t.predictRowProbs(buf)
			for c := range acc {
				acc[c] += p[c]
			}
		}
		inv := 1 / float64(len(f.trees))
		for c := range acc {
			acc[c] *= inv
		}
	}
	return out, nil
}

// Predict implements Classifier.
func (f *RandomForest) Predict(X [][]float64) ([]int, error) {
	probs, err := f.PredictProba(X)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(probs))
	for i, p := range probs {
		out[i] = f.classes[argmax(p)]
	}
	return out, nil
}
