package ml

import (
	"bytes"
	"testing"
)

// TestForestTreesMatchBootstrapOracle fits every tree of a forest a
// second time as a plain DecisionTree on its bootstrap sample
// materialized in draw order (draw i takes row rng.Intn(n) from the
// tree's bootstrap generator) with the tree's own hyperparameters, and
// requires identical model bytes. Every class is drawn into every
// sample, so the plain tree sees the forest's classes.
func TestForestTreesMatchBootstrapOracle(t *testing.T) {
	vX, vy := voterShaped(2000, 41, 4, 2)
	tX, ty := tieHeavy(1500, 8)
	cases := []struct {
		name string
		X    [][]float64
		y    []int
		f    *RandomForest
	}{
		{"voter", vX, vy, &RandomForest{NEstimators: 5, MaxDepth: 7, Seed: 11}},
		{"voter minleaf 4", vX, vy, &RandomForest{NEstimators: 4, MaxDepth: 9, MinSamplesLeaf: 4, Seed: 3}},
		{"tie-heavy minleaf 3", tX, ty, &RandomForest{NEstimators: 5, MaxDepth: 8, MinSamplesLeaf: 3, MaxFeatures: 2, Seed: 6}},
	}
	for _, c := range cases {
		if err := c.f.FitWorkers(c.X, c.y, 2); err != nil {
			t.Fatal(err)
		}
		n, nfeat := len(c.y), len(c.X)
		for ti, got := range c.f.trees {
			r := newRNG(c.f.Seed + int64(ti)*104729 + 1)
			Xb := make([][]float64, nfeat)
			for f := range Xb {
				Xb[f] = make([]float64, n)
			}
			yb := make([]int, n)
			for i := range yb {
				row := r.Intn(n)
				for f := range Xb {
					Xb[f][i] = c.X[f][row]
				}
				yb[i] = c.y[row]
			}
			want := &DecisionTree{
				MaxDepth:       c.f.MaxDepth,
				MinSamplesLeaf: c.f.MinSamplesLeaf,
				MaxFeatures:    c.f.mtry(nfeat),
				Seed:           c.f.Seed + int64(ti)*7919,
			}
			if err := want.Fit(Xb, yb); err != nil {
				t.Fatal(err)
			}
			if !equalInts(want.classes, c.f.classes) {
				t.Fatalf("%s tree %d: bootstrap draws classes %v of %v", c.name, ti, want.classes, c.f.classes)
			}
			if want.NumNodes() < 15 {
				t.Fatalf("%s tree %d: only %d nodes", c.name, ti, want.NumNodes())
			}
			if !bytes.Equal(mustMarshal(t, got), mustMarshal(t, want)) {
				t.Errorf("%s tree %d: forest tree differs from a plain tree fit on its materialized bootstrap", c.name, ti)
			}
		}
	}
}

// TestForestModelBytesPinned pins forests where repeated bootstrap
// draws meet MinSamplesLeaf and runs of tied values, at workers 1 and
// 2. The constants were computed with attribute lists holding one
// entry per bootstrap draw.
func TestForestModelBytesPinned(t *testing.T) {
	const (
		wantVoterMinLeaf = "09354dcc82a9817418c4ce65513485ae22d82cdf233b1950d4b4ef49f1c086b6"
		wantTieForest    = "da4ef2ca0be11597ac3080b371660b430da2e0f1e4be6e8387ae02c7f1ee1fd0"
	)
	X, y := voterShaped(4000, 97, 4, 1)
	Xt, yt := tieHeavy(3000, 21)
	for _, workers := range []int{1, 2} {
		f := &RandomForest{NEstimators: 4, MaxDepth: 8, MinSamplesLeaf: 3, Seed: 2}
		if err := f.FitWorkers(X, y, workers); err != nil {
			t.Fatal(err)
		}
		if got := modelSHA(t, f); got != wantVoterMinLeaf {
			t.Errorf("voter forest MinSamplesLeaf=3 workers=%d: sha256 %s, want %s", workers, got, wantVoterMinLeaf)
		}
		tf := &RandomForest{NEstimators: 4, MaxDepth: 9, MinSamplesLeaf: 2, Seed: 3}
		if err := tf.FitWorkers(Xt, yt, workers); err != nil {
			t.Fatal(err)
		}
		if got := modelSHA(t, tf); got != wantTieForest {
			t.Errorf("tie-heavy forest workers=%d: sha256 %s, want %s", workers, got, wantTieForest)
		}
	}
}

// TestMergePartialsRejectsWithoutMutation: a merge that fails
// validation leaves a fitted forest exactly as it was, so it still
// predicts and marshals to the same bytes.
func TestMergePartialsRejectsWithoutMutation(t *testing.T) {
	X6, y := batchDataset(600, 6, 5)
	f := NewRandomForest(4)
	f.MaxDepth = 5
	f.Seed = 1
	if err := f.Fit(X6, y); err != nil {
		t.Fatal(err)
	}
	before := mustMarshal(t, f)
	want, err := f.Predict(X6)
	if err != nil {
		t.Fatal(err)
	}
	lo4, err := f.FitPartial(X6[:4], y, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	hi6, err := f.FitPartial(X6, y, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	lo6, err := f.FitPartial(X6, y, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		parts []*ForestPartial
	}{
		{"mixed feature counts", []*ForestPartial{lo4, hi6}},
		{"gap", []*ForestPartial{hi6}},
		{"short", []*ForestPartial{lo6}},
		{"overlap", []*ForestPartial{lo6, lo6, hi6}},
	} {
		name := c.name
		if err := f.MergePartials(c.parts); err == nil {
			t.Fatalf("%s: merge accepted", name)
		}
		if !bytes.Equal(mustMarshal(t, f), before) {
			t.Fatalf("%s: rejected merge changed the forest", name)
		}
		got, err := f.Predict(X6)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: row %d predicts %d after the rejected merge, %d before", name, i, got[i], want[i])
			}
		}
		if _, err := f.Predict(X6[:4]); err == nil {
			t.Fatalf("%s: forest accepts 4 features after the rejected merge", name)
		}
	}
}
