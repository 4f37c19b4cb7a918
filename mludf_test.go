package vexdb

import (
	"crypto/sha256"
	"testing"

	"vexdb/ml"
)

// trainKNNBlob fits a tiny KNN on a one-point training set derived
// from seed and returns its serialized form. KNN serialization stores
// the training data, so distinct seeds yield distinct valid blobs.
func trainKNNBlob(t testing.TB, seed int) []byte {
	t.Helper()
	m := ml.NewKNN(1)
	if err := m.Fit([][]float64{{float64(seed)}}, []int{seed % 3}); err != nil {
		t.Fatal(err)
	}
	blob, err := ml.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestModelCacheCollisionVerifiesBlob simulates a 64-bit hash
// collision: an entry is planted under blob B's key but holding blob
// A's digest and classifier. get(B) must detect the digest mismatch
// and deserialize B instead of serving A's classifier.
func TestModelCacheCollisionVerifiesBlob(t *testing.T) {
	blobA := trainKNNBlob(t, 1)
	blobB := trainKNNBlob(t, 2)
	c := newModelCache()
	clfA, err := c.get(blobA)
	if err != nil {
		t.Fatal(err)
	}
	// Plant A's entry under B's key, as a colliding hash would.
	keyB := modelKey{hash: fnv64a(blobB), size: len(blobB)}
	c.mu.Lock()
	c.entries[keyB] = &modelEntry{digest: sha256.Sum256(blobA), clf: clfA}
	c.mu.Unlock()

	clfB, err := c.get(blobB)
	if err != nil {
		t.Fatal(err)
	}
	// The two training sets predict different classes for their own
	// training point; a collision serving clfA would misclassify.
	got, err := clfB.Predict([][]float64{{2}})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 2%3 {
		t.Fatalf("collision served the wrong model: predicted %d, want %d", got[0], 2%3)
	}
	// The slot now holds B (latest-deserialized wins); a repeat get(B)
	// must hit and return the same classifier instance.
	again, err := c.get(blobB)
	if err != nil {
		t.Fatal(err)
	}
	if again != clfB {
		t.Fatal("verified entry was not cached")
	}
}

// TestModelCacheSingleEntryEviction: inserting past the capacity must
// evict exactly one entry, not clear the whole cache.
func TestModelCacheSingleEntryEviction(t *testing.T) {
	c := newModelCache()
	blobs := make([][]byte, modelCacheMaxEntries+1)
	for i := range blobs {
		blobs[i] = trainKNNBlob(t, i)
		if _, err := c.get(blobs[i]); err != nil {
			t.Fatal(err)
		}
	}
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	if n != modelCacheMaxEntries {
		t.Fatalf("cache holds %d entries after overflow, want %d", n, modelCacheMaxEntries)
	}
}

// TestModelCacheHitReturnsSameInstance: the §5.1 snapshot cache must
// avoid re-deserialization on repeated identical blobs.
func TestModelCacheHitReturnsSameInstance(t *testing.T) {
	c := newModelCache()
	blob := trainKNNBlob(t, 7)
	a, err := c.get(blob)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh slice with equal bytes must hit the same entry.
	b, err := c.get(append([]byte(nil), blob...))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical blob bytes missed the cache")
	}
}
