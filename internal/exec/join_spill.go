// The hash join's core: one build index, one match routine and one
// build loader, shared by the in-memory join, the resident grace
// partitions and every recursion level.
//
// A joinIndex holds a set of build rows hashed on their equi-key (a
// single-integer fast path decided once from static key types, a
// generic encoded-key path, or no keys at all for a cross join), and
// match joins probe rows against it: the joined rows the residual
// keeps, the probe rows with no key match, and the probe rows whose
// every match the residual rejected. The in-memory probe emits those
// as they come; the spilled join tags them.
//
// loadBuild accumulates build rows into one index while they fit the
// memory budget. When they outgrow it, it switches to hybrid grace
// mode, the same way at every level:
//
//  1. Build rows partition by a hash of their equi-key. Partitions
//     spill largest-first (ties to the higher index) until the
//     resident set fits; later build rows append to their partition's
//     resident buffer or spill file directly.
//  2. Probe rows route by the same hash on the left keys. Rows landing
//     in a memory-resident partition match its index immediately; rows
//     of spilled partitions are deferred to per-partition probe files.
//     Once the probe side is done, the resident partitions are freed
//     and each spilled partition loads through loadBuild one level
//     deeper: whole while it fits, partitioned on the next hash nibble
//     (with its own resident sub-partitions) only when it overflows.
//  3. Because deferred output arrives partition-at-a-time — not in
//     probe order — every output row is tagged with the position the
//     in-memory join would have emitted it at: posKey packs
//     (probe chunk, output section, row) and buildSeq is the global
//     build row id. The whole output then flows through the shared
//     external-sort machinery keyed on (posKey, buildSeq), restoring
//     byte-identical in-memory emission order; that sort spills its
//     own runs under the same budget.
//
// The posKey section bits reproduce the in-memory per-chunk emission
// layout: matched rows first (by probe row, then build row), then
// LEFT-join padded rows — unmatched-key rows before residual-rejected
// rows, each in probe-row order.
//
// The probe side stays morsel-parallel under spill: workers claim
// probe morsels and probe resident partitions concurrently, each
// tagging output through its own run builder (all runs merge in one
// order-restoring sort), and serialize only on routing deferred rows
// to spilled partitions. The sort makes worker scheduling an
// implementation detail, not a semantic one.
//
// Joins without equi-keys (cross products) and joins whose keys or
// residual contain UDFs never partition: their build side stays in
// memory regardless of budget, charged to the query's tracker. The
// level-0 fan-out defaults to 16 partitions but widens (up to 256)
// when the planner estimated the build side large enough that one
// pass at 16 would still leave oversized partitions
// (plan.ExecHints.FanoutLog2); deeper levels split 16 ways on the hash
// bits above those already consumed.
package exec

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"vexdb/internal/plan"
	"vexdb/internal/spill"
	"vexdb/internal/sql"
	"vexdb/internal/vector"
)

// posKey section bits. Probe chunk rows are far below 2^30.
const (
	unmatchedBit = int64(1) << 31 // padded (LEFT join) section of a chunk
	residualBit  = int64(1) << 30 // padded because the residual rejected every match
)

// spillableJoin reports whether the join can grace-partition: it
// needs equi-keys for partitioning, and UDF-free keys/residual (spill
// re-evaluates keys over spilled rows, and the residual runs
// partition-at-a-time rather than chunk-at-a-time).
func spillableJoin(spec *plan.HashJoin) bool {
	if len(spec.LeftKeys) == 0 {
		return false
	}
	if exprsHaveUDF(spec.LeftKeys) || exprsHaveUDF(spec.RightKeys) {
		return false
	}
	return spec.Extra == nil || !exprsHaveUDF([]plan.Expr{spec.Extra})
}

// joinIntKey reports whether the join uses the sign-extended
// single-integer key fast path, decided from static key types so that
// every index and partition of one join agrees.
func joinIntKey(spec *plan.HashJoin) bool {
	if len(spec.LeftKeys) != 1 || len(spec.RightKeys) != 1 {
		return false
	}
	lt, rt := spec.LeftKeys[0].Type(), spec.RightKeys[0].Type()
	intType := func(t vector.Type) bool { return t == vector.Int32 || t == vector.Int64 }
	return intType(lt) && intType(rt)
}

func intKeyAt(v *vector.Vector, r int) int64 {
	if v.Type() == vector.Int64 {
		return v.Int64s()[r]
	}
	return int64(v.Int32s()[r])
}

// appendJoinKey encodes row r's generic equi-key into buf; null
// reports a NULL key cell (NULL keys never match). A DOUBLE -0.0
// encodes as +0.0, since = holds between them: the index, the probe
// and the spill partitioning all read keys through here, so the two
// zeros meet in memory and in every spilled partition.
func appendJoinKey(buf []byte, keyVecs []*vector.Vector, r int) (key []byte, null bool) {
	for _, kv := range keyVecs {
		if kv.IsNull(r) {
			return buf, true
		}
		if kv.Type() == vector.Float64 && kv.Float64s()[r] == 0 {
			buf = appendValueKey(buf, vector.NewFloat64(0))
			continue
		}
		buf = appendRowKey(buf, kv, r)
	}
	return buf, false
}

// joinKeyHash returns the partition hash of row r's equi-key and
// whether any key cell is NULL. intKey selects the sign-extended
// single-integer encoding so int32 and int64 sides hash identically.
func joinKeyHash(keyVecs []*vector.Vector, r int, intKey bool, buf *[]byte) (uint64, bool) {
	if intKey {
		kv := keyVecs[0]
		if kv.IsNull(r) {
			return 0, true
		}
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(intKeyAt(kv, r)))
		return hashKeyBytes(b[:]), false
	}
	k, null := appendJoinKey((*buf)[:0], keyVecs, r)
	*buf = k
	if null {
		return 0, true
	}
	return hashKeyBytes(k), false
}

// evalKeys evaluates the key expressions over a chunk.
func evalKeys(keys []plan.Expr, ch *vector.Chunk) ([]*vector.Vector, error) {
	out := make([]*vector.Vector, len(keys))
	for i, k := range keys {
		v, err := Evaluate(k, ch)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// joinIndex is a hash index over a set of build rows: the whole build
// side of an in-memory join, or one grace partition. seq holds the
// rows' global build ids (nil in memory, where output needs no tags);
// bytes is the footprint charged to the query's tracker for them.
type joinIndex struct {
	spec  *plan.HashJoin
	build *vector.Chunk
	seq   []int64
	bytes int64
	idx64 map[int64][]int32  // single integer key
	idx   map[string][]int32 // generic encoded key; nil for a cross join
}

// newJoinIndex builds the index over build rows, evaluating the right
// key expressions over them.
func newJoinIndex(spec *plan.HashJoin, build *vector.Chunk, seq []int64) (*joinIndex, error) {
	ix := &joinIndex{spec: spec, build: build, seq: seq}
	if len(spec.RightKeys) == 0 {
		return ix, nil
	}
	keyVecs, err := evalKeys(spec.RightKeys, build)
	if err != nil {
		return nil, err
	}
	n := build.NumRows()
	if joinIntKey(spec) {
		ix.idx64 = make(map[int64][]int32, n)
		kv := keyVecs[0]
		for r := 0; r < n; r++ {
			if !kv.IsNull(r) {
				k := intKeyAt(kv, r)
				ix.idx64[k] = append(ix.idx64[k], int32(r))
			}
		}
		return ix, nil
	}
	ix.idx = make(map[string][]int32, n)
	var key []byte
	for r := 0; r < n; r++ {
		var null bool
		if key, null = appendJoinKey(key[:0], keyVecs, r); !null {
			ix.idx[string(key)] = append(ix.idx[string(key)], int32(r))
		}
	}
	return ix, nil
}

// joinMatch is the outcome of matching probe rows against an index.
type joinMatch struct {
	joined       *vector.Chunk // probe ++ build columns of the kept rows
	probe, build []int         // each joined row's probe and build row
	unmatched    []int         // LEFT joins: probe rows with no key match
	rejected     []int         // LEFT joins: rows whose every match the residual rejected
}

// match joins the given probe rows of ch (all rows when rows is nil)
// against the index and applies the residual. Joined rows come in
// (probe row, build row) order; unmatched and rejected rows in probe
// row order.
func (ix *joinIndex) match(ch *vector.Chunk, keyVecs []*vector.Vector, rows []int) (*joinMatch, error) {
	n := len(rows)
	if rows == nil {
		n = ch.NumRows()
	}
	left := ix.spec.Kind == sql.LeftJoin
	m := &joinMatch{}
	var all []int32
	if len(keyVecs) == 0 {
		all = make([]int32, ix.build.NumRows())
		for i := range all {
			all[i] = int32(i)
		}
	}
	var key []byte
	for i := 0; i < n; i++ {
		r := i
		if rows != nil {
			r = rows[i]
		}
		var hits []int32
		switch {
		case len(keyVecs) == 0:
			hits = all
		case ix.idx64 != nil:
			if kv := keyVecs[0]; !kv.IsNull(r) {
				hits = ix.idx64[intKeyAt(kv, r)]
			}
		default:
			var null bool
			if key, null = appendJoinKey(key[:0], keyVecs, r); !null {
				hits = ix.idx[string(key)]
			}
		}
		if len(hits) == 0 {
			if left {
				m.unmatched = append(m.unmatched, r)
			}
			continue
		}
		for _, b := range hits {
			m.probe = append(m.probe, r)
			m.build = append(m.build, int(b))
		}
	}
	m.joined = vector.NewChunk(append(ch.Gather(m.probe).Cols(), ix.build.Gather(m.build).Cols()...)...)
	if ix.spec.Extra == nil || len(m.probe) == 0 {
		return m, nil
	}
	pred, err := Evaluate(ix.spec.Extra, m.joined)
	if err != nil {
		return nil, err
	}
	if pred.Type() != vector.Bool {
		return nil, fmt.Errorf("exec: join condition must be boolean, got %s", pred.Type())
	}
	keep := pred.Bools()
	sel := make([]int, 0, len(m.probe))
	kept := false // the current probe row has a kept match
	for i, r := range m.probe {
		if !pred.IsNull(i) && keep[i] {
			sel = append(sel, i)
			kept = true
		}
		// A probe row's matches are contiguous.
		if i+1 == len(m.probe) || m.probe[i+1] != r {
			if left && !kept {
				m.rejected = append(m.rejected, r)
			}
			kept = false
		}
	}
	if len(sel) < len(m.probe) {
		m.joined = m.joined.Gather(sel)
		for i, s := range sel {
			m.probe[i], m.build[i] = m.probe[s], m.build[s]
		}
		m.probe, m.build = m.probe[:len(sel)], m.build[:len(sel)]
	}
	return m, nil
}

// loadBuild reads build chunks from next into one in-memory index
// while they fit the budget, charging them to the query's tracker. On
// overflow — for a join that can partition, below the depth cap — it
// switches to a grace spill state at level, partitioning on the hash
// bits above shift, and routes the accumulated and every remaining row
// there. next returns each chunk with its rows' global build ids (nil
// at level 0, where ids are input positions) and a nil chunk at the
// end.
func loadBuild(ctx *Context, spec *plan.HashJoin, level int, shift uint, next func() (*vector.Chunk, []int64, error)) (*joinIndex, *joinSpill, error) {
	canSpill := level < maxSpillLevels && spillableJoin(spec)
	var acc []*vector.Vector
	var seq []int64
	var bytes int64
	var js *joinSpill
	for {
		if ctx.interrupted() {
			return nil, js, ErrCancelled
		}
		ch, ids, err := next()
		if err != nil {
			return nil, js, err
		}
		if ch == nil {
			break
		}
		if ch.NumRows() == 0 {
			continue
		}
		if js != nil {
			if err := js.addBuildChunk(ch, ids); err != nil {
				return nil, js, err
			}
			if err := js.spillUntilFits(); err != nil {
				return nil, js, err
			}
			continue
		}
		if acc == nil {
			acc = make([]*vector.Vector, ch.NumCols())
			for i := range acc {
				acc[i] = vector.New(ch.Col(i).Type(), ch.NumRows())
			}
		}
		for i := range acc {
			acc[i].AppendVector(ch.Col(i))
		}
		seq = append(seq, ids...)
		b := chunkBytes(ch) + 8*int64(len(ids))
		bytes += b
		ctx.memGrow(b)
		if canSpill && ctx.shouldSpill(bytes) {
			js = newJoinSpill(ctx, spec, level, shift, acc)
			if err := js.addBuildChunk(vector.NewChunk(acc...), seq); err != nil {
				return nil, js, err
			}
			ctx.memShrink(bytes) // rows now live in per-partition state
			if err := js.spillUntilFits(); err != nil {
				return nil, js, err
			}
			acc, seq = nil, nil
		}
	}
	if js != nil {
		return nil, js, js.finishBuild()
	}
	if acc == nil {
		for _, c := range spec.Right.Schema() {
			acc = append(acc, vector.New(c.Type, 0))
		}
	}
	ix, err := newJoinIndex(spec, vector.NewChunk(acc...), seq)
	if err != nil {
		return nil, nil, err
	}
	ix.bytes = bytes
	return ix, nil, nil
}

// joinSpillPart is one grace partition of the join.
type joinSpillPart struct {
	// Resident build state (until/unless spilled).
	build []*vector.Vector
	seq   []int64
	bytes int64
	ix    *joinIndex // built once the build side is complete

	spilled   bool
	buildBuf  *rowAppender // spilled: pending build rows [cols..., seq]
	buildRefs []spill.ChunkRef
	probeBuf  *rowAppender // spilled: deferred probe rows [cols..., posKey]
	probeRefs []spill.ChunkRef
}

// joinSpill is the state of one grace-partitioned level of the join.
type joinSpill struct {
	ctx    *Context
	spec   *plan.HashJoin
	intKey bool
	level  int
	shift  uint // hash bits consumed by shallower levels
	bits   uint // this level partitions on hash bits [shift, shift+bits)

	buildTypes []vector.Type
	file       *spill.File // shared by all partitions' build/probe chunks
	parts      []joinSpillPart
	nextSeq    int64 // level-0 build row counter (input order)

	// mu guards the deferred-probe routing (partition buffers and the
	// shared spill file) during the parallel probe; build and
	// post-probe phases are single-threaded.
	mu      sync.Mutex
	sorters []*runBuilder // one per probe worker; runs merge at finish
	outPos  atomic.Int64
	outCols int    // joined output columns (before the 2 tag columns)
	keyBuf  []byte // build phase scratch (single-threaded)
}

// probeState is one probe worker's private state: its own run builder
// (runs from all workers merge in finishEmit), key scratch buffer and
// the position counter shared by every level of the join.
type probeState struct {
	sorter *runBuilder
	keyBuf []byte
	outPos *atomic.Int64
}

// newProbeState registers a probe worker's private output builder.
func (js *joinSpill) newProbeState() *probeState {
	b := newRunBuilder(js.ctx, joinSortKeys(js.outCols), 0, "join-out")
	js.mu.Lock()
	js.sorters = append(js.sorters, b)
	js.mu.Unlock()
	return &probeState{sorter: b, outPos: &js.outPos}
}

// joinSortKeys returns the tag sort keys over a joined chunk with
// nOut data columns.
func joinSortKeys(nOut int) []plan.SortKey {
	return []plan.SortKey{
		{Expr: &plan.ColRef{Idx: nOut, Typ: vector.Int64, Name: "__poskey"}},
		{Expr: &plan.ColRef{Idx: nOut + 1, Typ: vector.Int64, Name: "__buildseq"}},
	}
}

// newJoinSpill returns an empty spill state for build rows of acc's
// types. Level 0 fans out 1<<FanoutLog2 ways (at least 16, at most
// 256); deeper levels split 16 ways.
func newJoinSpill(ctx *Context, spec *plan.HashJoin, level int, shift uint, acc []*vector.Vector) *joinSpill {
	bits := uint(4)
	if level == 0 {
		bits = uint(min(max(spec.Hints.FanoutLog2, 4), 8))
	}
	js := &joinSpill{ctx: ctx, spec: spec, intKey: joinIntKey(spec), level: level, shift: shift, bits: bits}
	js.parts = make([]joinSpillPart, 1<<bits)
	for _, c := range acc {
		js.buildTypes = append(js.buildTypes, c.Type())
	}
	js.outCols = len(spec.Left.Schema()) + len(spec.Right.Schema())
	return js
}

// part returns a key hash's partition at this level.
func (js *joinSpill) part(h uint64) int {
	return int((h >> js.shift) & (1<<js.bits - 1))
}

// ensureFile lazily creates the level's shared spill file.
func (js *joinSpill) ensureFile() (*spill.File, error) {
	if js.file == nil {
		f, err := js.ctx.spillManager().Create("join")
		if err != nil {
			return nil, err
		}
		js.file = f
	}
	return js.file, nil
}

// writeBuf flushes a partition buffer into the shared spill file.
func (js *joinSpill) writeBuf(a *rowAppender, refs *[]spill.ChunkRef) error {
	if a.rows() == 0 {
		return nil
	}
	f, err := js.ensureFile()
	if err != nil {
		return err
	}
	ref, err := f.WriteChunkRef(a.cols)
	if err != nil {
		return err
	}
	*refs = append(*refs, ref)
	a.reset()
	return nil
}

// addBuildChunk partitions one chunk of build rows whose global build
// ids are seq; nil seq (level 0) numbers them in input order. NULL-key
// rows consume an id but are dropped — they can never match, and
// LEFT-join padding only ever references probe rows.
func (js *joinSpill) addBuildChunk(ch *vector.Chunk, seq []int64) error {
	keyVecs, err := evalKeys(js.spec.RightKeys, ch)
	if err != nil {
		return err
	}
	n := ch.NumRows()
	if seq == nil {
		seq = make([]int64, n)
		for r := range seq {
			seq[r] = js.nextSeq + int64(r)
		}
		js.nextSeq += int64(n)
	}
	sel := make([][]int, len(js.parts))
	for r := 0; r < n; r++ {
		if h, null := joinKeyHash(keyVecs, r, js.intKey, &js.keyBuf); !null {
			p := js.part(h)
			sel[p] = append(sel[p], r)
		}
	}
	rowBytes := chunkBytes(ch)/int64(n) + 8
	for p := range sel {
		if len(sel[p]) == 0 {
			continue
		}
		pt := &js.parts[p]
		if !pt.spilled {
			if pt.build == nil {
				pt.build = make([]*vector.Vector, len(js.buildTypes))
				for i, t := range js.buildTypes {
					pt.build[i] = vector.New(t, 0)
				}
			}
			for _, r := range sel[p] {
				for c := range pt.build {
					pt.build[c].AppendRowFrom(ch.Col(c), r)
				}
				pt.seq = append(pt.seq, seq[r])
			}
			delta := rowBytes * int64(len(sel[p]))
			pt.bytes += delta
			js.ctx.memGrow(delta)
			continue
		}
		if pt.buildBuf == nil {
			pt.buildBuf = newRowAppender(append(append([]vector.Type{}, js.buildTypes...), vector.Int64))
		}
		for _, r := range sel[p] {
			for c := 0; c < len(js.buildTypes); c++ {
				pt.buildBuf.cols[c].AppendRowFrom(ch.Col(c), r)
			}
			pt.buildBuf.cols[len(js.buildTypes)].AppendValue(vector.NewInt64(seq[r]))
		}
		if pt.buildBuf.rows() >= vector.DefaultChunkSize {
			if err := js.writeBuf(pt.buildBuf, &pt.buildRefs); err != nil {
				return err
			}
		}
	}
	return nil
}

// spillUntilFits writes resident partitions to disk, largest first
// (ties to the higher index), until the resident build state fits the
// budget's share or everything is spilled.
func (js *joinSpill) spillUntilFits() error {
	resident := int64(0)
	for p := range js.parts {
		if !js.parts[p].spilled {
			resident += js.parts[p].bytes
		}
	}
	for js.ctx.shouldSpill(resident) {
		best := -1
		for p := range js.parts {
			pt := &js.parts[p]
			if pt.spilled || pt.bytes == 0 {
				continue
			}
			if best < 0 || pt.bytes >= js.parts[best].bytes {
				best = p
			}
		}
		if best < 0 {
			return nil
		}
		resident -= js.parts[best].bytes
		if err := js.spillPart(best); err != nil {
			return err
		}
	}
	return nil
}

// spillPart writes one resident partition's build rows to disk and
// frees them.
func (js *joinSpill) spillPart(p int) error {
	pt := &js.parts[p]
	pt.spilled = true
	n := len(pt.seq)
	for from := 0; from < n; from += vector.DefaultChunkSize {
		to := min(from+vector.DefaultChunkSize, n)
		cols := make([]*vector.Vector, 0, len(pt.build)+1)
		for _, c := range pt.build {
			cols = append(cols, c.Slice(from, to))
		}
		cols = append(cols, vector.FromInt64s(pt.seq[from:to]))
		f, err := js.ensureFile()
		if err != nil {
			return err
		}
		ref, err := f.WriteChunkRef(cols)
		if err != nil {
			return err
		}
		pt.buildRefs = append(pt.buildRefs, ref)
	}
	js.ctx.memShrink(pt.bytes)
	pt.build, pt.seq, pt.bytes = nil, nil, 0
	js.ctx.spillStats().addPartitions(1)
	return nil
}

// finishBuild flushes spilled buffers and builds hash indexes over the
// resident partitions. Level 0 records the hybrid outcome (partitions
// on disk vs resident) for SpillStats and EXPLAIN ANALYZE.
func (js *joinSpill) finishBuild() error {
	if err := js.spillUntilFits(); err != nil {
		return err
	}
	var spilled, resident int64
	for p := range js.parts {
		pt := &js.parts[p]
		if pt.spilled {
			spilled++
			if err := js.writeBuf(pt.buildBuf, &pt.buildRefs); err != nil {
				return err
			}
			pt.buildBuf = nil
			continue
		}
		if pt.build == nil {
			continue
		}
		resident++
		ix, err := newJoinIndex(js.spec, vector.NewChunk(pt.build...), pt.seq)
		if err != nil {
			return err
		}
		pt.ix = ix
	}
	if js.level > 0 {
		return nil
	}
	js.ctx.spillStats().addResident(resident)
	if tap := js.spec.Hints.Tap; tap != nil {
		tap.SpillSpilled.Add(spilled)
		tap.SpillResident.Add(resident)
	}
	return nil
}

// probeChunk routes one probe chunk whose rows carry the given posKey
// tags: rows of resident partitions match immediately, rows of spilled
// partitions defer to their partition's probe file, and rows that
// cannot match (NULL keys, empty partitions) pad at once (LEFT joins). Safe for concurrent probe workers: resident
// state is read-only here, output goes through the worker's private
// state, and only the deferral buffers (and shared spill file)
// serialize on js.mu.
func (js *joinSpill) probeChunk(ch *vector.Chunk, tags []int64, ps *probeState) error {
	keyVecs, err := evalKeys(js.spec.LeftKeys, ch)
	if err != nil {
		return err
	}
	var unmatched []int // NULL keys, and keys of partitions without build rows
	resSel := make([][]int, len(js.parts))
	defSel := make([][]int, len(js.parts))
	anyDeferred := false
	for r := 0; r < ch.NumRows(); r++ {
		h, null := joinKeyHash(keyVecs, r, js.intKey, &ps.keyBuf)
		if null {
			unmatched = append(unmatched, r)
			continue
		}
		switch p := js.part(h); {
		case js.parts[p].spilled:
			defSel[p] = append(defSel[p], r)
			anyDeferred = true
		case js.parts[p].ix == nil:
			unmatched = append(unmatched, r)
		default:
			resSel[p] = append(resSel[p], r)
		}
	}
	if anyDeferred {
		if err := js.deferRows(ch, tags, defSel); err != nil {
			return err
		}
	}
	for p := range resSel {
		if len(resSel[p]) == 0 {
			continue
		}
		if err := js.probeIndex(js.parts[p].ix, ch, keyVecs, resSel[p], tags, ps); err != nil {
			return err
		}
	}
	return js.emitPadded(ch, unmatched, tags, unmatchedBit, ps)
}

// deferRows appends probe rows (with their tags) to their spilled
// partitions' probe buffers.
func (js *joinSpill) deferRows(ch *vector.Chunk, tags []int64, defSel [][]int) error {
	js.mu.Lock()
	defer js.mu.Unlock()
	nc := ch.NumCols()
	for p := range defSel {
		if len(defSel[p]) == 0 {
			continue
		}
		pt := &js.parts[p]
		if pt.probeBuf == nil {
			types := make([]vector.Type, nc+1)
			for i := 0; i < nc; i++ {
				types[i] = ch.Col(i).Type()
			}
			types[nc] = vector.Int64
			pt.probeBuf = newRowAppender(types)
		}
		for _, r := range defSel[p] {
			for c := 0; c < nc; c++ {
				pt.probeBuf.cols[c].AppendRowFrom(ch.Col(c), r)
			}
			pt.probeBuf.cols[nc].AppendValue(vector.NewInt64(tags[r]))
		}
		if pt.probeBuf.rows() >= vector.DefaultChunkSize {
			if err := js.writeBuf(pt.probeBuf, &pt.probeRefs); err != nil {
				return err
			}
		}
	}
	return nil
}

// probeIndex matches probe rows against one index and appends the
// tagged output to the worker's order-restoring sorter: matched rows
// keep their probe row's tag and build id; padded rows sort after every
// matched row of their chunk, unmatched-key before residual-rejected.
func (js *joinSpill) probeIndex(ix *joinIndex, ch *vector.Chunk, keyVecs []*vector.Vector, rows []int, tags []int64, ps *probeState) error {
	m, err := ix.match(ch, keyVecs, rows)
	if err != nil {
		return err
	}
	if len(m.probe) > 0 {
		posKeys := make([]int64, len(m.probe))
		seqs := make([]int64, len(m.probe))
		for i, r := range m.probe {
			posKeys[i], seqs[i] = tags[r], ix.seq[m.build[i]]
		}
		if err := ps.emit(m.joined, posKeys, seqs); err != nil {
			return err
		}
	}
	if err := js.emitPadded(ch, m.unmatched, tags, unmatchedBit, ps); err != nil {
		return err
	}
	return js.emitPadded(ch, m.rejected, tags, unmatchedBit|residualBit, ps)
}

// emitPadded appends NULL-padded output rows for unmatched LEFT probe
// rows, tagged with their row's tag plus the section bits.
func (js *joinSpill) emitPadded(ch *vector.Chunk, rows []int, tags []int64, bits int64, ps *probeState) error {
	if len(rows) == 0 || js.spec.Kind != sql.LeftJoin {
		return nil
	}
	posKeys := make([]int64, len(rows))
	for i, r := range rows {
		posKeys[i] = tags[r] | bits
	}
	return ps.emit(padRightNull(js.spec.Right.Schema(), ch, rows), posKeys, make([]int64, len(rows)))
}

// emit appends output rows with their (posKey, buildSeq) tags to the
// worker's order-restoring run builder. outPos only reserves distinct
// position ranges per builder chunk — the restoration sort keys on the
// tags, so reservation order across workers is irrelevant.
func (ps *probeState) emit(out *vector.Chunk, posKeys, seqs []int64) error {
	cols := append(append([]*vector.Vector{}, out.Cols()...),
		vector.FromInt64s(posKeys), vector.FromInt64s(seqs))
	n := int64(out.NumRows())
	return ps.sorter.add(vector.NewChunk(cols...), ps.outPos.Add(n)-n)
}

// processSpilled runs once every probe row has been routed (single
// threaded): it frees the resident partitions, then joins every
// spilled partition's deferred probe rows against its build rows, one
// partition at a time.
func (js *joinSpill) processSpilled(ps *probeState) error {
	for p := range js.parts {
		pt := &js.parts[p]
		js.ctx.memShrink(pt.bytes)
		pt.build, pt.seq, pt.bytes, pt.ix = nil, nil, 0, nil
	}
	for p := range js.parts {
		pt := &js.parts[p]
		if !pt.spilled {
			continue
		}
		if err := js.writeBuf(pt.probeBuf, &pt.probeRefs); err != nil {
			return err
		}
		pt.probeBuf = nil
		if err := js.processPart(pt, ps); err != nil {
			return err
		}
	}
	js.release()
	return nil
}

// processPart joins one spilled partition: its build rows load through
// loadBuild one level deeper, in memory while they fit, and its
// deferred probe rows (tags riding along) probe the result.
func (js *joinSpill) processPart(pt *joinSpillPart, ps *probeState) error {
	if len(pt.probeRefs) == 0 {
		return nil // no probe rows: inner joins and LEFT pads both emit nothing
	}
	refs := pt.buildRefs
	ix, sub, err := loadBuild(js.ctx, js.spec, js.level+1, js.shift+js.bits,
		func() (*vector.Chunk, []int64, error) {
			if len(refs) == 0 {
				return nil, nil, nil
			}
			cols, err := js.file.ReadChunkAt(refs[0])
			refs = refs[1:]
			if err != nil {
				return nil, nil, err
			}
			nb := len(cols) - 1
			return vector.NewChunk(cols[:nb]...), cols[nb].Int64s(), nil
		})
	defer sub.release()
	if err != nil {
		return err
	}
	for _, ref := range pt.probeRefs {
		if js.ctx.interrupted() {
			return ErrCancelled
		}
		cols, err := js.file.ReadChunkAt(ref)
		if err != nil {
			return err
		}
		np := len(cols) - 1
		data, tags := vector.NewChunk(cols[:np]...), cols[np].Int64s()
		if sub != nil {
			err = sub.probeChunk(data, tags, ps)
		} else {
			var keyVecs []*vector.Vector
			if keyVecs, err = evalKeys(js.spec.LeftKeys, data); err == nil {
				err = js.probeIndex(ix, data, keyVecs, nil, tags, ps)
			}
		}
		if err != nil {
			return err
		}
	}
	if sub != nil {
		return sub.processSpilled(ps)
	}
	js.ctx.memShrink(ix.bytes)
	return nil
}

// finishEmit closes the probe phase: every probe worker's runs merge
// into final output order. The caller strips the two tag columns.
func (js *joinSpill) finishEmit() (*runMerger, error) {
	var runs []*mergeRun
	var files []*spill.File
	var held int64
	var ferr error
	for _, b := range js.sorters {
		rs, file, err := b.finish()
		if file != nil {
			files = append(files, file)
		}
		held += b.heldBytes()
		if err != nil && ferr == nil {
			ferr = err
		}
		if err == nil {
			runs = append(runs, rs...)
		}
	}
	if ferr != nil {
		releaseFiles(files)
		js.ctx.memShrink(held)
		return nil, ferr
	}
	return newRunMerger(js.ctx, joinSortKeys(js.outCols), runs, -1, files, held), nil
}

// release frees any file the spill state still holds (the manager
// sweeps anything missed at stream close).
func (js *joinSpill) release() {
	if js != nil && js.file != nil {
		js.file.Release()
		js.file = nil
	}
}
