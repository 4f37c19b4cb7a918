package ml

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Model serialization: the pickle analog of the paper. Marshal turns a
// fitted Classifier into a self-describing versioned binary blob that
// can be stored in a BLOB column; Unmarshal restores it inside a
// prediction UDF. Format (little-endian):
//
//	magic   [4]byte "VXML"
//	version uint16 (currently 1)
//	kind    uint8 (model type tag)
//	payload model-specific
var modelMagic = [4]byte{'V', 'X', 'M', 'L'}

const serializeVersion = 1

// Model type tags.
const (
	kindDecisionTree uint8 = iota + 1
	kindRandomForest
	kindLogReg
	kindGaussianNB
	kindKNN
)

// Marshal serializes a fitted model to its binary representation.
func Marshal(c Classifier) ([]byte, error) {
	w := &writer{}
	w.bytes(modelMagic[:])
	w.u16(serializeVersion)
	switch m := c.(type) {
	case *DecisionTree:
		w.u8(kindDecisionTree)
		marshalTree(w, m)
	case *RandomForest:
		if len(m.trees) == 0 {
			return nil, ErrNotFitted
		}
		w.u8(kindRandomForest)
		w.i64(int64(m.NEstimators))
		w.i64(int64(m.MaxDepth))
		w.i64(int64(m.MinSamplesLeaf))
		w.i64(int64(m.MaxFeatures))
		w.i64(m.Seed)
		w.ints(m.classes)
		w.i64(int64(m.nfeat))
		w.i64(int64(len(m.trees)))
		for _, t := range m.trees {
			marshalTree(w, t)
		}
	case *LogisticRegression:
		if m.weights == nil {
			return nil, ErrNotFitted
		}
		w.u8(kindLogReg)
		w.f64(m.LearningRate)
		w.i64(int64(m.Iterations))
		w.f64(m.L2)
		w.ints(m.classes)
		w.i64(int64(m.nfeat))
		w.i64(int64(len(m.weights)))
		for _, wv := range m.weights {
			w.floats(wv)
		}
	case *GaussianNB:
		if m.means == nil {
			return nil, ErrNotFitted
		}
		w.u8(kindGaussianNB)
		w.f64(m.VarSmoothing)
		w.ints(m.classes)
		w.i64(int64(m.nfeat))
		w.floats(m.priors)
		w.i64(int64(len(m.means)))
		for i := range m.means {
			w.floats(m.means[i])
			w.floats(m.vars[i])
		}
	case *KNN:
		if m.trainX == nil {
			return nil, ErrNotFitted
		}
		w.u8(kindKNN)
		w.i64(int64(m.K))
		w.ints(m.classes)
		w.i64(int64(m.nfeat))
		w.i64(int64(len(m.trainX)))
		for _, col := range m.trainX {
			w.floats(col)
		}
		w.ints(m.trainY)
	default:
		return nil, fmt.Errorf("ml: cannot marshal %T", c)
	}
	return w.buf, nil
}

func marshalTree(w *writer, t *DecisionTree) {
	if len(t.nodes) == 0 {
		// An unfitted tree marshals with zero nodes; Unmarshal yields
		// an unfitted tree.
		w.i64(int64(t.MaxDepth))
		w.i64(int64(t.MinSamplesLeaf))
		w.i64(int64(t.MaxFeatures))
		w.i64(t.Seed)
		w.ints(nil)
		w.i64(0)
		w.i64(0)
		return
	}
	w.i64(int64(t.MaxDepth))
	w.i64(int64(t.MinSamplesLeaf))
	w.i64(int64(t.MaxFeatures))
	w.i64(t.Seed)
	w.ints(t.classes)
	w.i64(int64(t.nfeat))
	w.i64(int64(len(t.nodes)))
	for i := range t.nodes {
		nd := &t.nodes[i]
		w.i32(nd.feature)
		w.i32(nd.left)
		w.i32(nd.right)
		w.f64(nd.threshold)
		if nd.left < 0 {
			w.floats(nd.probs)
		}
	}
}

// CorruptModelError is the error Unmarshal returns for every blob it
// rejects: a bad header, a truncated or malformed payload, or a model
// whose structure prediction could not walk safely. Model blobs are
// read from table cells, so they are untrusted input.
type CorruptModelError struct {
	Reason string
}

func (e *CorruptModelError) Error() string { return "ml: corrupt model blob: " + e.Reason }

func corrupt(format string, args ...any) error {
	return &CorruptModelError{Reason: fmt.Sprintf(format, args...)}
}

// Unmarshal deserializes a model blob produced by Marshal. It returns a
// *CorruptModelError unless the blob decodes completely to a model
// that passes validateModel.
func Unmarshal(data []byte) (Classifier, error) {
	r := &reader{buf: data}
	var magic [4]byte
	r.bytes(magic[:])
	if magic != modelMagic {
		return nil, corrupt("bad magic %q", magic[:])
	}
	if v := r.u16(); v != serializeVersion {
		return nil, corrupt("unsupported version %d", v)
	}
	kind := r.u8()
	var out Classifier
	switch kind {
	case kindDecisionTree:
		t := &DecisionTree{}
		unmarshalTree(r, t)
		out = t
	case kindRandomForest:
		f := &RandomForest{}
		f.NEstimators = int(r.i64())
		f.MaxDepth = int(r.i64())
		f.MinSamplesLeaf = int(r.i64())
		f.MaxFeatures = int(r.i64())
		f.Seed = r.i64()
		f.classes = r.ints()
		f.nfeat = int(r.i64())
		ntrees := r.count(7 * 8)
		f.trees = make([]*DecisionTree, ntrees)
		for i := range f.trees {
			t := &DecisionTree{}
			unmarshalTree(r, t)
			f.trees[i] = t
		}
		out = f
	case kindLogReg:
		m := &LogisticRegression{}
		m.LearningRate = r.f64()
		m.Iterations = int(r.i64())
		m.L2 = r.f64()
		m.classes = r.ints()
		m.nfeat = int(r.i64())
		k := r.count(8)
		m.weights = make([][]float64, k)
		for i := range m.weights {
			m.weights[i] = r.floats()
		}
		out = m
	case kindGaussianNB:
		m := &GaussianNB{}
		m.VarSmoothing = r.f64()
		m.classes = r.ints()
		m.nfeat = int(r.i64())
		m.priors = r.floats()
		k := r.count(16)
		m.means = make([][]float64, k)
		m.vars = make([][]float64, k)
		for i := 0; i < k; i++ {
			m.means[i] = r.floats()
			m.vars[i] = r.floats()
		}
		out = m
	case kindKNN:
		m := &KNN{}
		m.K = int(r.i64())
		m.classes = r.ints()
		m.nfeat = int(r.i64())
		k := r.count(8)
		m.trainX = make([][]float64, k)
		for i := range m.trainX {
			m.trainX[i] = r.floats()
		}
		m.trainY = r.ints()
		out = m
	default:
		return nil, corrupt("unknown model kind %d", kind)
	}
	if r.err != nil {
		return nil, corrupt("%v", r.err)
	}
	if err := validateModel(out); err != nil {
		return nil, err
	}
	return out, nil
}

// validateModel checks the structural invariants every prediction path
// indexes by, for a decoded model.
func validateModel(c Classifier) error {
	switch m := c.(type) {
	case *DecisionTree:
		return m.validate()
	case *RandomForest:
		if len(m.trees) == 0 {
			return corrupt("forest has no trees")
		}
		for i, t := range m.trees {
			if len(t.nodes) == 0 {
				return corrupt("forest tree %d has no nodes", i)
			}
			if err := t.validate(); err != nil {
				return err
			}
			if t.nfeat != m.nfeat || !equalInts(t.classes, m.classes) {
				return corrupt("forest tree %d: shape (%d features, classes %v) differs from the forest's (%d, %v)",
					i, t.nfeat, t.classes, m.nfeat, m.classes)
			}
		}
	case *LogisticRegression:
		if m.nfeat < 1 || len(m.classes) == 0 || len(m.weights) != len(m.classes) {
			return corrupt("logistic regression: %d features, %d classes, %d weight vectors",
				m.nfeat, len(m.classes), len(m.weights))
		}
		for i, w := range m.weights {
			if len(w) != m.nfeat+1 {
				return corrupt("logistic regression weight vector %d has %d entries, want %d", i, len(w), m.nfeat+1)
			}
		}
	case *GaussianNB:
		k := len(m.classes)
		if m.nfeat < 1 || k == 0 || len(m.priors) != k || len(m.means) != k {
			return corrupt("naive bayes: %d features, %d classes, %d priors, %d mean vectors",
				m.nfeat, k, len(m.priors), len(m.means))
		}
		for i := range m.means {
			if len(m.means[i]) != m.nfeat || len(m.vars[i]) != m.nfeat {
				return corrupt("naive bayes class %d statistics do not cover %d features", i, m.nfeat)
			}
		}
	case *KNN:
		if m.K < 1 || m.nfeat < 1 || len(m.classes) == 0 || len(m.trainX) != m.nfeat || len(m.trainY) == 0 {
			return corrupt("knn: k %d, %d features, %d classes, %d columns, %d rows",
				m.K, m.nfeat, len(m.classes), len(m.trainX), len(m.trainY))
		}
		for _, col := range m.trainX {
			if len(col) != len(m.trainY) {
				return corrupt("knn column of %d rows, want %d", len(col), len(m.trainY))
			}
		}
		for _, c := range m.trainY {
			if c < 0 || c >= len(m.classes) {
				return corrupt("knn class index %d outside %d classes", c, len(m.classes))
			}
		}
	}
	return nil
}

// validate checks that a decoded tree is one Marshal could have
// written: its nodes are in preorder (node i's left child is i+1, its
// right child follows the left subtree, and the walk from the root
// visits every node exactly once), split features index the fitted
// features, and every leaf holds one probability per class. A tree
// without nodes is unfitted and predicts ErrNotFitted.
func (t *DecisionTree) validate() error {
	n := len(t.nodes)
	if n == 0 {
		return nil
	}
	if t.nfeat < 1 || len(t.classes) == 0 {
		return corrupt("tree with %d features and %d classes", t.nfeat, len(t.classes))
	}
	next := int32(0)
	stack := []int32{0}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if i != next || int(i) >= n {
			return corrupt("tree node %d reached where preorder expects node %d of %d", i, next, n)
		}
		next++
		nd := &t.nodes[i]
		if nd.left < 0 {
			if len(nd.probs) != len(t.classes) {
				return corrupt("tree leaf %d has %d probabilities for %d classes", i, len(nd.probs), len(t.classes))
			}
			continue
		}
		if nd.feature < 0 || int(nd.feature) >= t.nfeat {
			return corrupt("tree node %d splits on feature %d of %d", i, nd.feature, t.nfeat)
		}
		if nd.left != i+1 || nd.right <= nd.left {
			return corrupt("tree node %d has children %d, %d", i, nd.left, nd.right)
		}
		stack = append(stack, nd.right, nd.left)
	}
	if int(next) != n {
		return corrupt("tree reaches %d of its %d nodes", next, n)
	}
	return nil
}

func unmarshalTree(r *reader, t *DecisionTree) {
	t.MaxDepth = int(r.i64())
	t.MinSamplesLeaf = int(r.i64())
	t.MaxFeatures = int(r.i64())
	t.Seed = r.i64()
	t.classes = r.ints()
	t.nfeat = int(r.i64())
	n := r.count(20)
	t.nodes = make([]treeNode, n)
	for i := 0; i < n; i++ {
		nd := &t.nodes[i]
		nd.feature = r.i32()
		nd.left = r.i32()
		nd.right = r.i32()
		nd.threshold = r.f64()
		if nd.left < 0 {
			nd.probs = r.floats()
		}
	}
}

// ------------------------------------------------------------ writer

type writer struct {
	buf []byte
}

func (w *writer) bytes(b []byte) { w.buf = append(w.buf, b...) }
func (w *writer) u8(v uint8)     { w.buf = append(w.buf, v) }
func (w *writer) u16(v uint16)   { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *writer) i32(v int32)    { w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(v)) }
func (w *writer) i64(v int64)    { w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(v)) }
func (w *writer) f64(v float64)  { w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v)) }

func (w *writer) floats(v []float64) {
	w.i64(int64(len(v)))
	for _, x := range v {
		w.f64(x)
	}
}

func (w *writer) ints(v []int) {
	w.i64(int64(len(v)))
	for _, x := range v {
		w.i64(int64(x))
	}
}

// ------------------------------------------------------------ reader

type reader struct {
	buf []byte
	pos int
	err error
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *reader) take(n int) []byte {
	if r.err != nil || r.pos+n > len(r.buf) {
		r.fail(fmt.Errorf("unexpected end of blob at offset %d", r.pos))
		return make([]byte, n)
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

func (r *reader) bytes(dst []byte) { copy(dst, r.take(len(dst))) }
func (r *reader) u8() uint8        { return r.take(1)[0] }
func (r *reader) u16() uint16      { return binary.LittleEndian.Uint16(r.take(2)) }
func (r *reader) i32() int32       { return int32(binary.LittleEndian.Uint32(r.take(4))) }
func (r *reader) i64() int64       { return int64(binary.LittleEndian.Uint64(r.take(8))) }
func (r *reader) f64() float64     { return math.Float64frombits(binary.LittleEndian.Uint64(r.take(8))) }

// count reads an element count and checks it against the unread bytes,
// given each element's minimum encoded size, so a hostile count cannot
// force a large allocation. On failure it records the error and
// returns 0.
func (r *reader) count(minSize int) int {
	n := r.i64()
	if r.err != nil {
		return 0
	}
	if n < 0 || n > int64((len(r.buf)-r.pos)/minSize) {
		r.fail(fmt.Errorf("count %d at offset %d exceeds the remaining %d bytes", n, r.pos-8, len(r.buf)-r.pos))
		return 0
	}
	return int(n)
}

func (r *reader) floats() []float64 {
	n := r.count(8)
	if r.err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.f64()
	}
	return out
}

func (r *reader) ints() []int {
	n := r.count(8)
	if r.err != nil {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(r.i64())
	}
	return out
}
