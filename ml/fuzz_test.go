package ml

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// fittedBlobs returns a Marshal blob of every model kind, fitted on a
// small NaN-bearing dataset, plus an unfitted tree.
func fittedBlobs(tb testing.TB) [][]byte {
	tb.Helper()
	X, y := batchDataset(120, 3, 5)
	models := []Classifier{
		&DecisionTree{MaxDepth: 4},
		&RandomForest{NEstimators: 3, MaxDepth: 3, Seed: 2},
		&LogisticRegression{LearningRate: 0.1, Iterations: 5},
		NewGaussianNB(),
		NewKNN(3),
	}
	var blobs [][]byte
	for _, m := range models {
		if err := m.Fit(X, y); err != nil {
			tb.Fatalf("%s: %v", m.Name(), err)
		}
		blob, err := Marshal(m)
		if err != nil {
			tb.Fatalf("%s: %v", m.Name(), err)
		}
		blobs = append(blobs, blob)
	}
	empty, err := Marshal(&DecisionTree{})
	if err != nil {
		tb.Fatal(err)
	}
	return append(blobs, empty)
}

// hangBlob is a tree blob whose root is its own left child with an
// infinite threshold: without validation every non-NaN row walks the
// root forever.
func hangBlob(tb testing.TB) []byte {
	tb.Helper()
	X, y := blobs2(40, 3)
	tr := &DecisionTree{MaxDepth: 2}
	if err := tr.Fit(X, y); err != nil {
		tb.Fatal(err)
	}
	blob, err := Marshal(tr)
	if err != nil {
		tb.Fatal(err)
	}
	// header (7) + four hyperparameters (32) + classes (8 + 8k) +
	// nfeat (8) + node count (8), then node 0: feature, left, right,
	// threshold.
	node0 := 7 + 32 + 8 + 8*len(tr.classes) + 16
	binary.LittleEndian.PutUint32(blob[node0+4:], 0)
	binary.LittleEndian.PutUint64(blob[node0+12:], math.Float64bits(math.Inf(1)))
	return blob
}

// modelWidth returns the feature count a decoded model predicts on.
func modelWidth(c Classifier) int {
	switch m := c.(type) {
	case *DecisionTree:
		return m.nfeat
	case *RandomForest:
		return m.nfeat
	case *LogisticRegression:
		return m.nfeat
	case *GaussianNB:
		return m.nfeat
	case *KNN:
		return m.nfeat
	}
	return 1
}

// probeMatrix builds a few rows of width features covering NaN, the
// infinities, signed zeros and large magnitudes.
func probeMatrix(width int) [][]float64 {
	vals := []float64{math.NaN(), math.Inf(-1), -1e300, -1, math.Copysign(0, -1), 0, 0.5, 1, 1e300, math.Inf(1)}
	X := make([][]float64, width)
	for f := range X {
		X[f] = make([]float64, len(vals))
		for i := range vals {
			X[f][i] = vals[(i+f)%len(vals)]
		}
	}
	return X
}

func TestUnmarshalRejectsHangBlob(t *testing.T) {
	_, err := Unmarshal(hangBlob(t))
	var ce *CorruptModelError
	if !errors.As(err, &ce) {
		t.Fatalf("Unmarshal(hang reproducer) = %v, want *CorruptModelError", err)
	}
}

// TestUnmarshalRejectsMalformedTrees covers each structural check on a
// decoded tree and forest.
func TestUnmarshalRejectsMalformedTrees(t *testing.T) {
	X, y := blobs2(60, 4)
	tr := &DecisionTree{MaxDepth: 3}
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if tr.NumNodes() < 3 {
		t.Fatalf("tree has %d nodes", tr.NumNodes())
	}
	for name, mutate := range map[string]func(*DecisionTree){
		"right child out of range": func(t *DecisionTree) { t.nodes[0].right = int32(len(t.nodes)) },
		"backward child":           func(t *DecisionTree) { t.nodes[1].left = 0 },
		"shared child":             func(t *DecisionTree) { t.nodes[0].right = t.nodes[0].left },
		"feature out of range":     func(t *DecisionTree) { t.nodes[0].feature = int32(t.nfeat) },
		"negative feature":         func(t *DecisionTree) { t.nodes[0].feature = -1 },
		"short leaf":               func(t *DecisionTree) { t.nodes[len(t.nodes)-1].probs = t.nodes[len(t.nodes)-1].probs[:1] },
		"unreachable node":         func(t *DecisionTree) { t.nodes = append(t.nodes, t.nodes[len(t.nodes)-1]) },
	} {
		bad := *tr
		bad.nodes = make([]treeNode, len(tr.nodes))
		copy(bad.nodes, tr.nodes)
		mutate(&bad)
		blob, err := Marshal(&bad)
		if err != nil {
			t.Fatal(err)
		}
		var ce *CorruptModelError
		if _, err := Unmarshal(blob); !errors.As(err, &ce) {
			t.Errorf("%s: Unmarshal = %v, want *CorruptModelError", name, err)
		}
	}

	f := &RandomForest{NEstimators: 2, MaxDepth: 3}
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	other := &DecisionTree{MaxDepth: 2}
	if err := other.Fit(X[:1], y); err != nil {
		t.Fatal(err)
	}
	f.trees[1] = other
	blob, err := Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	var ce *CorruptModelError
	if _, err := Unmarshal(blob); !errors.As(err, &ce) {
		t.Errorf("forest tree of another width: Unmarshal = %v, want *CorruptModelError", err)
	}
}

// FuzzUnmarshal feeds arbitrary blobs to Unmarshal: every rejection is
// a *CorruptModelError, and every accepted model predicts on probe rows
// of its own width through both the row and the batch path without
// panicking or hanging.
func FuzzUnmarshal(f *testing.F) {
	for _, blob := range fittedBlobs(f) {
		f.Add(blob)
	}
	f.Add(hangBlob(f))
	f.Fuzz(func(t *testing.T, blob []byte) {
		c, err := Unmarshal(blob)
		if err != nil {
			var ce *CorruptModelError
			if !errors.As(err, &ce) {
				t.Fatalf("rejection is not a *CorruptModelError: %v", err)
			}
			return
		}
		width := modelWidth(c)
		if width < 1 || width > 64 {
			width = 1 // a mismatched width must fail cleanly too
		}
		X := probeMatrix(width)
		_, _ = c.Predict(X)
		_ = PredictLabelsInto(c, X, make([]int32, len(X[0])))
	})
}
