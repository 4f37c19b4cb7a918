package ml

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// DecisionTree is a CART classification tree split on the Gini
// impurity criterion. The zero value is usable with defaults; set
// hyperparameters before Fit.
//
// Training follows SLIQ/SPRINT (Shafer, Agrawal & Mehta, VLDB 1996):
// each feature's rows are sorted once into an attribute list, and a
// node is a range [lo, hi) over every list. Finding a split scans the
// sampled features' contiguous ranges; applying it stably partitions
// the other features' ranges in place, so both children's ranges stay
// sorted and no node ever sorts or gathers. NaN sorts last and no
// split falls between a finite value and NaN, so NaN rows always go
// right, as PREDICT's x <= t sends them, and the fitted tree does not
// depend on the input's row order. Each list entry carries an integer
// weight, and every count, size and MinSamplesLeaf test is a weighted
// sum; a plain tree weighs each row 1.
type DecisionTree struct {
	// MaxDepth bounds tree depth; 0 means unbounded.
	MaxDepth int
	// MinSamplesLeaf is the minimum rows per leaf (default 1).
	MinSamplesLeaf int
	// MaxFeatures is the number of features examined per split;
	// 0 means all features (random forests set sqrt(p)).
	MaxFeatures int
	// Seed drives feature subsampling when MaxFeatures > 0.
	Seed int64

	nodes   []treeNode
	classes []int
	nfeat   int
}

// treeNode is one node in the flattened tree. Leaves have left == -1.
type treeNode struct {
	feature   int32
	left      int32
	right     int32
	threshold float64
	// probs holds the class distribution at the node (leaves only).
	probs []float64
}

// NewDecisionTree returns a tree with common defaults (depth 12,
// one-sample leaves).
func NewDecisionTree() *DecisionTree {
	return &DecisionTree{MaxDepth: 12, MinSamplesLeaf: 1}
}

// Name implements Classifier.
func (t *DecisionTree) Name() string { return "decision_tree" }

// Classes implements Classifier.
func (t *DecisionTree) Classes() []int { return t.classes }

// Fit implements Classifier.
func (t *DecisionTree) Fit(X [][]float64, y []int) error {
	if err := validateTreeXY(X, y); err != nil {
		return err
	}
	classes, cls := classIndices(y)
	lists := make([]attrList, len(X))
	for f, col := range X {
		lists[f] = sortedList(col, cls)
	}
	newTreeBuilder(lists, len(y), len(classes)).grow(t, classes)
	return nil
}

// validateTreeXY is validateXY plus the bound of the attribute lists'
// int32 row ids and weights.
func validateTreeXY(X [][]float64, y []int) error {
	n, err := validateXY(X, y)
	if err == nil && n > math.MaxInt32 {
		err = fmt.Errorf("ml: trees fit at most %d rows, got %d", math.MaxInt32, n)
	}
	return err
}

// classIndices returns the sorted class labels and each row's class
// index.
func classIndices(y []int) ([]int, []int32) {
	classes, cidx := classIndex(y)
	cls := make([]int32, len(y))
	for i, c := range y {
		cls[i] = int32(cidx[c])
	}
	return classes, cls
}

// valueRow is one entry of a feature's presort.
type valueRow struct {
	v float64
	r int32
}

// sortedList returns the attribute list of feature col over all rows,
// each weighing 1: ordered by value with NaN last, equal values by
// row. The order is total, so it does not depend on the sort
// algorithm.
func sortedList(col []float64, cls []int32) attrList {
	pairs := make([]valueRow, len(col))
	for i, v := range col {
		pairs[i] = valueRow{v, int32(i)}
	}
	slices.SortFunc(pairs, func(a, b valueRow) int {
		if c := compareNaNLast(a.v, b.v); c != 0 {
			return c
		}
		return cmp.Compare(a.r, b.r)
	})
	l := newAttrList(len(col))
	for i, p := range pairs {
		l.row[i], l.val[i], l.cls[i], l.wt[i] = p.r, p.v, cls[p.r], 1
	}
	return l
}

// compareNaNLast orders numbers ascending and NaN after them; -0 and
// +0 compare equal, as they do under <=.
func compareNaNLast(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	an, bn := math.IsNaN(a), math.IsNaN(b)
	switch {
	case an && !bn:
		return 1
	case bn && !an:
		return -1
	}
	return 0
}

// attrList is one feature's attribute list: a row id, the feature's
// value, the class index and a weight per entry, as parallel arrays
// sorted by value with NaN last. Each row has at most one entry. A
// plain tree lists every row with weight 1; a forest tree lists each
// row its bootstrap drew, weighted by the number of draws.
type attrList struct {
	row []int32
	val []float64
	cls []int32
	wt  []int32
}

func newAttrList(n int) attrList {
	return attrList{row: make([]int32, n), val: make([]float64, n), cls: make([]int32, n), wt: make([]int32, n)}
}

// resize sets the list's length to n, within its capacity.
func (l *attrList) resize(n int) {
	l.row, l.val, l.cls, l.wt = l.row[:n], l.val[:n], l.cls[:n], l.wt[:n]
}

// treeBuilder grows trees over filled attribute lists. Its buffers are
// reused by every tree it grows.
type treeBuilder struct {
	lists    []attrList
	scratch  attrList // partition buffer for the right-going entries
	goLeft   []bool   // per row id: its side of the split being applied
	nclasses int
	tree     *DecisionTree
	minLeaf  int
	rng      *rng

	featOrder               []int
	leftCounts, rightCounts []float64
}

// newTreeBuilder returns a builder over lists of rows [0, nrows),
// which must all hold the same rows.
func newTreeBuilder(lists []attrList, nrows, nclasses int) *treeBuilder {
	return &treeBuilder{
		lists:       lists,
		scratch:     newAttrList(nrows),
		goLeft:      make([]bool, nrows),
		nclasses:    nclasses,
		featOrder:   make([]int, len(lists)),
		leftCounts:  make([]float64, nclasses),
		rightCounts: make([]float64, nclasses),
	}
}

// grow fits t on the weighted rows in the builder's lists. It consumes
// the lists: partitioning leaves them sorted only within each node.
func (b *treeBuilder) grow(t *DecisionTree, classes []int) {
	t.classes = classes
	t.nfeat = len(b.lists)
	t.nodes = t.nodes[:0]
	b.tree = t
	b.minLeaf = max(1, t.MinSamplesLeaf)
	b.rng = newRNG(t.Seed + 1)
	counts := make([]float64, b.nclasses)
	l := &b.lists[0]
	for i, c := range l.cls {
		counts[c] += float64(l.wt[i])
	}
	b.build(0, len(l.row), 0, counts)
}

// isLeaf reports whether a node with these weighted class counts and
// this depth stops growing.
func (b *treeBuilder) isLeaf(counts []float64, depth int) bool {
	present := 0
	for _, c := range counts {
		if c > 0 {
			present++
		}
	}
	return present <= 1 ||
		(b.tree.MaxDepth > 0 && depth >= b.tree.MaxDepth) ||
		sum(counts) < float64(2*b.minLeaf)
}

// sum returns a node's weighted size from its class counts. Weights
// are integers, so the sum is exact in any order.
func sum(counts []float64) float64 {
	s := 0.0
	for _, c := range counts {
		s += c
	}
	return s
}

// build grows the subtree over the entries in [lo, hi), whose weighted
// class counts are counts, and returns its node index. Nodes are
// emitted in preorder: a node, its left subtree, then its right
// subtree.
func (b *treeBuilder) build(lo, hi, depth int, counts []float64) int32 {
	nodeIdx := int32(len(b.tree.nodes))
	b.tree.nodes = append(b.tree.nodes, treeNode{left: -1, right: -1})
	if !b.isLeaf(counts, depth) {
		if feat, thresh, ok := b.bestSplit(lo, hi, counts); ok {
			lc, rc := make([]float64, b.nclasses), make([]float64, b.nclasses)
			mid := b.mark(lo, hi, feat, thresh, lc, rc)
			minLeaf := float64(b.minLeaf)
			if sum(lc) >= minLeaf && sum(rc) >= minLeaf {
				// Two leaf children read only their counts, so
				// their ranges need no partitioning.
				if !b.isLeaf(lc, depth+1) || !b.isLeaf(rc, depth+1) {
					b.partition(lo, hi, feat)
				}
				l := b.build(lo, mid, depth+1, lc)
				r := b.build(mid, hi, depth+1, rc)
				nd := &b.tree.nodes[nodeIdx]
				nd.feature = int32(feat)
				nd.threshold = thresh
				nd.left = l
				nd.right = r
				return nodeIdx
			}
		}
	}
	// Leaf: normalize counts into a class distribution.
	total := sum(counts)
	probs := make([]float64, b.nclasses)
	for i, c := range counts {
		probs[i] = c / total
	}
	b.tree.nodes[nodeIdx].probs = probs
	return nodeIdx
}

// bestSplit scans a (possibly random) subset of features for the
// threshold minimizing weighted Gini impurity over [lo, hi). Each
// feature's range is already sorted, so the scan walks it once,
// moving one entry's weight at a time from the right counts to the
// left. Only boundaries between distinct adjacent values are
// candidates, and the class counts there do not depend on how equal
// values are ordered, nor on whether a row drawn k times is k entries
// of weight 1 or one entry of weight k.
// NaN sorts last and the scan stops at the first NaN, so no boundary
// separates a finite value from NaN.
func (b *treeBuilder) bestSplit(lo, hi int, totalCounts []float64) (int, float64, bool) {
	nfeat := len(b.lists)
	featOrder := b.featOrder
	for i := range featOrder {
		featOrder[i] = i
	}
	tryFeats := nfeat
	if b.tree.MaxFeatures > 0 && b.tree.MaxFeatures < nfeat {
		tryFeats = b.tree.MaxFeatures
		// Partial Fisher-Yates to pick tryFeats random features.
		for i := 0; i < tryFeats; i++ {
			j := i + b.rng.Intn(nfeat-i)
			featOrder[i], featOrder[j] = featOrder[j], featOrder[i]
		}
	}

	n := sum(totalCounts)
	minLeaf := float64(b.minLeaf)
	bestGain := 1e-12
	bestFeat, bestThresh := -1, 0.0
	parentImp := giniImpurity(totalCounts, n)
	leftCounts, rightCounts := b.leftCounts, b.rightCounts

	for fi := 0; fi < tryFeats; fi++ {
		f := featOrder[fi]
		l := &b.lists[f]
		vals, cls, wt := l.val[lo:hi], l.cls[lo:hi], l.wt[lo:hi]
		copy(rightCounts, totalCounts)
		clear(leftCounts)
		nLeft := 0.0
		for i := 0; i < len(vals)-1; i++ {
			c, w := cls[i], float64(wt[i])
			leftCounts[c] += w
			rightCounts[c] -= w
			nLeft += w
			v, vNext := vals[i], vals[i+1]
			if v == vNext {
				continue // cannot split between equal values
			}
			if math.IsNaN(vNext) {
				break // NaN sorts last; NaN rows always go right
			}
			nRight := n - nLeft
			if nLeft < minLeaf || nRight < minLeaf {
				continue
			}
			imp := (nLeft*giniImpurity(leftCounts, nLeft) + nRight*giniImpurity(rightCounts, nRight)) / n
			gain := parentImp - imp
			if gain > bestGain {
				bestGain = gain
				bestFeat = f
				bestThresh = (v + vNext) / 2
			}
		}
	}
	if bestFeat < 0 {
		return 0, 0, false
	}
	return bestFeat, bestThresh, true
}

// mark records each row's side of the split value <= thresh on feat,
// accumulates the children's weighted class counts into lc and rc,
// and returns the end of the left child's range. The split feature's
// range is sorted by the tested value with NaN last, so its left
// entries form a prefix.
func (b *treeBuilder) mark(lo, hi, feat int, thresh float64, lc, rc []float64) int {
	l := &b.lists[feat]
	mid := lo
	for i := lo; i < hi; i++ {
		left := l.val[i] <= thresh
		b.goLeft[l.row[i]] = left
		if left {
			lc[l.cls[i]] += float64(l.wt[i])
			mid++
		} else {
			rc[l.cls[i]] += float64(l.wt[i])
		}
	}
	return mid
}

// partition stably moves every other feature's left-marked entries in
// [lo, hi) ahead of the right ones, through the scratch buffer, so
// each child's range stays sorted. The split feature's range is
// already partitioned (see mark). Each entry is written to both sides
// and only the cursor of its own side advances, so the loop has no
// data-dependent branch to mispredict.
func (b *treeBuilder) partition(lo, hi, feat int) {
	goLeft := b.goLeft
	n := hi - lo
	srow, sval, scls, swt := b.scratch.row[:n], b.scratch.val[:n], b.scratch.cls[:n], b.scratch.wt[:n]
	for f := range b.lists {
		if f == feat {
			continue
		}
		l := &b.lists[f]
		rows, vals, cls, wt := l.row[lo:hi], l.val[lo:hi], l.cls[lo:hi], l.wt[lo:hi]
		nl, nr := 0, 0
		for i, r := range rows {
			v, c, w := vals[i], cls[i], wt[i]
			rows[nl], vals[nl], cls[nl], wt[nl] = r, v, c, w
			srow[nr], sval[nr], scls[nr], swt[nr] = r, v, c, w
			left := 0
			if goLeft[r] {
				left = 1
			}
			nl += left
			nr += 1 - left
		}
		copy(rows[nl:], srow[:nr])
		copy(vals[nl:], sval[:nr])
		copy(cls[nl:], scls[:nr])
		copy(wt[nl:], swt[:nr])
	}
}

func giniImpurity(counts []float64, n float64) float64 {
	if n == 0 {
		return 0
	}
	sumSq := 0.0
	for _, c := range counts {
		p := c / n
		sumSq += p * p
	}
	return 1 - sumSq
}

// predictRowProbs walks the tree for one row.
func (t *DecisionTree) predictRowProbs(x []float64) []float64 {
	i := int32(0)
	for {
		nd := &t.nodes[i]
		if nd.left < 0 {
			return nd.probs
		}
		if x[nd.feature] <= nd.threshold {
			i = nd.left
		} else {
			i = nd.right
		}
	}
}

// Predict implements Classifier.
func (t *DecisionTree) Predict(X [][]float64) ([]int, error) {
	probs, err := t.PredictProba(X)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(probs))
	for i, p := range probs {
		out[i] = t.classes[argmax(p)]
	}
	return out, nil
}

// PredictProba implements Classifier.
func (t *DecisionTree) PredictProba(X [][]float64) ([][]float64, error) {
	if len(t.nodes) == 0 {
		return nil, ErrNotFitted
	}
	n, err := validateX(X)
	if err != nil {
		return nil, err
	}
	if len(X) != t.nfeat {
		return nil, fmt.Errorf("ml: tree fitted on %d features, got %d", t.nfeat, len(X))
	}
	out := make([][]float64, n)
	buf := make([]float64, 0, t.nfeat)
	for r := 0; r < n; r++ {
		buf = row(X, r, buf)
		p := t.predictRowProbs(buf)
		out[r] = append([]float64(nil), p...)
	}
	return out, nil
}

// Depth returns the maximum depth of the fitted tree (0 for a stump).
func (t *DecisionTree) Depth() int {
	if len(t.nodes) == 0 {
		return 0
	}
	var depth func(i int32) int
	depth = func(i int32) int {
		nd := &t.nodes[i]
		if nd.left < 0 {
			return 0
		}
		l, r := depth(nd.left), depth(nd.right)
		return 1 + int(math.Max(float64(l), float64(r)))
	}
	return depth(0)
}

// NumNodes returns the number of nodes in the fitted tree.
func (t *DecisionTree) NumNodes() int { return len(t.nodes) }
