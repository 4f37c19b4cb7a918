package ml

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"
)

// voterShaped mirrors the shape of the voter workload's training input
// (internal/workload GenerateVoters + weighted_label): every voter sits
// in a precinct whose partisan lean drives both its features (signal
// decaying with feature index plus uniform noise) and a weighted
// random 0/1 label. Rows whose id is divisible by 4 are the test split
// and are left out, as the workload's train query does.
func voterShaped(voters, precincts, nfeat int, seed int64) ([][]float64, []int) {
	r := newRNG(seed * 17)
	X := make([][]float64, nfeat)
	var y []int
	for i := 0; i < voters; i++ {
		p := r.Intn(precincts)
		lean := 0.15 + 0.7*float64(p)/float64(precincts-1)
		feats := make([]float64, nfeat)
		for f := range feats {
			feats[f] = lean*(1-0.1*float64(f)) + (r.Float64()-0.5)*0.3
		}
		if i%4 == 0 {
			continue
		}
		for f := range X {
			X[f] = append(X[f], feats[f])
		}
		label := 0
		if splitmix(uint64(i), uint64(seed)) < lean {
			label = 1
		}
		y = append(y, label)
	}
	return X, y
}

func splitmix(id, seed uint64) float64 {
	x := id*0x9E3779B97F4A7C15 + seed + 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// tieHeavy builds a 3-class dataset whose features take only a handful
// of integer values, so almost every sorted position sits inside a run
// of equal values.
func tieHeavy(n int, seed int64) ([][]float64, []int) {
	r := newRNG(seed)
	X := make([][]float64, 5)
	for f := range X {
		X[f] = make([]float64, n)
	}
	y := make([]int, n)
	for i := 0; i < n; i++ {
		for f := range X {
			X[f][i] = float64(r.Intn(3 + 2*f))
		}
		s := X[0][i] + X[1][i] - X[2][i] + float64(r.Intn(3))
		switch {
		case s > 4:
			y[i] = 2
		case s > 1:
			y[i] = 1
		}
	}
	return X, y
}

func modelSHA(t *testing.T, c Classifier) string {
	t.Helper()
	blob, err := Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// TestTreeModelBytesPinned pins the exact model bytes of NaN-free fits.
// The constants were computed with the per-node sorting split search
// that preceded the presorted attribute lists; the rewrite must
// reproduce them bit for bit.
func TestTreeModelBytesPinned(t *testing.T) {
	const (
		wantVoterForest = "5ca6515813712ef99e66108707d60a76f7b106aec7942a71b77476fe40d7134e"
		wantTieTree     = "f0177b3bdcfc994b30ef57845d583fcee4e477705f3779f19e99bb9dfdc823ed"
		wantTieSubset   = "adfa615fe41a7e8da9a875305c8b904e8c4618a586e5ecab81dcc32df3d209e4"
		wantAllFeatures = "6341175f195592e6b1bcd7c42d1b77a306d2cb3ebb3d3e719c2c469458bcb9dd"
	)
	X, y := voterShaped(4000, 97, 4, 1)
	for _, workers := range []int{1, 2, 8} {
		f := NewRandomForest(4)
		f.MaxDepth = 6
		f.Seed = 1
		if err := f.FitWorkers(X, y, workers); err != nil {
			t.Fatal(err)
		}
		if got := modelSHA(t, f); got != wantVoterForest {
			t.Errorf("voter forest workers=%d: sha256 %s, want %s", workers, got, wantVoterForest)
		}
		all := NewRandomForest(4)
		all.MaxDepth = 6
		all.MaxFeatures = len(X)
		all.Seed = 5
		if err := all.FitWorkers(X, y, workers); err != nil {
			t.Fatal(err)
		}
		if got := modelSHA(t, all); got != wantAllFeatures {
			t.Errorf("MaxFeatures=p forest workers=%d: sha256 %s, want %s", workers, got, wantAllFeatures)
		}
	}
	Xt, yt := tieHeavy(3000, 21)
	tree := &DecisionTree{MaxDepth: 9, MinSamplesLeaf: 3}
	if err := tree.Fit(Xt, yt); err != nil {
		t.Fatal(err)
	}
	if got := modelSHA(t, tree); got != wantTieTree {
		t.Errorf("tie-heavy tree: sha256 %s, want %s", got, wantTieTree)
	}
	if tree.NumNodes() < 50 {
		t.Fatalf("tie-heavy tree has only %d nodes", tree.NumNodes())
	}
	sub := &DecisionTree{MaxDepth: 9, MinSamplesLeaf: 3, MaxFeatures: 2, Seed: 4}
	if err := sub.Fit(Xt, yt); err != nil {
		t.Fatal(err)
	}
	if got := modelSHA(t, sub); got != wantTieSubset {
		t.Errorf("tie-heavy tree, 2 of 5 features per split: sha256 %s, want %s", got, wantTieSubset)
	}
}

// nanData returns a 3-class dataset where every feature cell is NaN
// with probability 0.1.
func nanData(n int, seed int64) ([][]float64, []int) {
	r := newRNG(seed)
	X := make([][]float64, 4)
	for f := range X {
		X[f] = make([]float64, n)
	}
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := r.Intn(3)
		y[i] = c
		for f := range X {
			X[f][i] = float64(c)*0.8 + r.Float64()*2
			if r.Intn(10) == 0 {
				X[f][i] = math.NaN()
			}
		}
	}
	return X, y
}

// TestTreeNaNRowOrderInvariance fits a tree on NaN-bearing features and
// on a row-permuted copy: NaN sorts last and no split falls between a
// finite value and NaN, so both fits must give the same model bytes and
// the same predictions, and no internal node may split the finite rows
// from the NaN rows.
func TestTreeNaNRowOrderInvariance(t *testing.T) {
	X, y := nanData(3000, 31)
	perm := newRNG(77).Perm(len(y))
	Xp := make([][]float64, len(X))
	for f := range X {
		Xp[f] = make([]float64, len(y))
		for i, p := range perm {
			Xp[f][i] = X[f][p]
		}
	}
	yp := make([]int, len(y))
	for i, p := range perm {
		yp[i] = y[p]
	}
	a := &DecisionTree{MaxDepth: 10, MinSamplesLeaf: 2}
	b := &DecisionTree{MaxDepth: 10, MinSamplesLeaf: 2}
	if err := a.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(Xp, yp); err != nil {
		t.Fatal(err)
	}
	probe, _ := nanData(1000, 32)
	pa, err := a.Predict(probe)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.Predict(probe)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range pa {
		if pa[i] != pb[i] {
			diff++
		}
	}
	if diff != 0 {
		t.Errorf("%d of %d probe predictions change under row permutation", diff, len(pa))
	}
	if !bytes.Equal(mustMarshal(t, a), mustMarshal(t, b)) {
		t.Error("model bytes change under row permutation")
	}
	// Walk the training rows down the tree: at every internal node the
	// threshold is finite and some finite row goes right next to the
	// NaN rows, so the split never separates finite rows from NaN rows.
	var check func(ni int32, rows []int)
	check = func(ni int32, rows []int) {
		nd := &a.nodes[ni]
		if nd.left < 0 {
			return
		}
		if math.IsNaN(nd.threshold) {
			t.Fatalf("node %d: NaN threshold", ni)
		}
		var left, right []int
		finiteRight := false
		for _, r := range rows {
			v := X[nd.feature][r]
			if v <= nd.threshold {
				left = append(left, r)
			} else {
				right = append(right, r)
				finiteRight = finiteRight || !math.IsNaN(v)
			}
		}
		if !finiteRight {
			t.Fatalf("node %d: threshold %v on feature %d separates finite rows from NaN rows", ni, nd.threshold, nd.feature)
		}
		check(nd.left, left)
		check(nd.right, right)
	}
	all := make([]int, len(y))
	for i := range all {
		all[i] = i
	}
	check(0, all)
}

func mustMarshal(t *testing.T, c Classifier) []byte {
	t.Helper()
	blob, err := Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestForestRareClass: every tree of a forest carries the forest's
// classes, even when its bootstrap sample misses a class, so the
// forest predicts through the row and batch paths and round-trips
// through Marshal/Unmarshal.
func TestForestRareClass(t *testing.T) {
	X, y := blobs2(60, 8)
	y[17] = 2 // a single row of class 2: most bootstraps miss it
	f := &RandomForest{NEstimators: 8, MaxDepth: 4, Seed: 3}
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for i, tr := range f.trees {
		if !equalInts(tr.classes, f.classes) {
			t.Fatalf("tree %d classes %v, forest %v", i, tr.classes, f.classes)
		}
	}
	rows, err := f.Predict(X)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]int32, len(rows))
	if err := f.PredictLabelsInto(X, batch); err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if int32(rows[i]) != batch[i] {
			t.Fatalf("row %d: row path %d, batch path %d", i, rows[i], batch[i])
		}
	}
	back, err := Unmarshal(mustMarshal(t, f))
	if err != nil {
		t.Fatal(err)
	}
	again, err := back.Predict(X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if rows[i] != again[i] {
			t.Fatalf("row %d: %d before the round trip, %d after", i, rows[i], again[i])
		}
	}
}
