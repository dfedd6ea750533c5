// Binary codec for core.WarmState — the engine-state body of a
// snapshot. Field order here is the format; any change needs a
// snapshot version bump in snapshot.go.
package durable

import (
	"fmt"

	"nerglobalizer/internal/core"
	"nerglobalizer/internal/nn"
	"nerglobalizer/internal/types"
)

func putInts(w *writer, xs []int) {
	w.u32(len(xs))
	for _, x := range xs {
		w.i64(x)
	}
}

func getInts(r *reader) []int {
	n := r.count(8)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = r.i64()
	}
	return out
}

func putEntities(w *writer, es []types.Entity) {
	w.u32(len(es))
	for _, e := range es {
		w.i64(e.Start)
		w.i64(e.End)
		w.i64(int(e.Type))
	}
}

func getEntities(r *reader) []types.Entity {
	n := r.count(24)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]types.Entity, n)
	for i := range out {
		out[i].Start = r.i64()
		out[i].End = r.i64()
		out[i].Type = types.EntityType(r.i64())
	}
	return out
}

func putMention(w *writer, m types.Mention) {
	w.i64(m.Key.TweetID)
	w.i64(m.Key.SentID)
	w.i64(m.Span.Start)
	w.i64(m.Span.End)
	w.str(m.Surface)
	w.i64(int(m.Type))
	if m.FromLocalNER {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

func getMention(r *reader) types.Mention {
	var m types.Mention
	m.Key.TweetID = r.i64()
	m.Key.SentID = r.i64()
	m.Span.Start = r.i64()
	m.Span.End = r.i64()
	m.Surface = r.str()
	m.Type = types.EntityType(r.i64())
	m.FromLocalNER = r.u8() == 1
	return m
}

// wireMentionMin is the smallest encoded mention: four i64s, an empty
// string, a type and a flag.
const wireMentionMin = 8*5 + 4 + 1

func putMentions(w *writer, ms []types.Mention) {
	w.u32(len(ms))
	for _, m := range ms {
		putMention(w, m)
	}
}

func getMentions(r *reader) []types.Mention {
	n := r.count(wireMentionMin)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]types.Mention, n)
	for i := range out {
		out[i] = getMention(r)
	}
	return out
}

func putMatrix(w *writer, m *nn.Matrix) {
	if m == nil {
		w.u8(0)
		return
	}
	w.u8(1)
	w.i64(m.Rows)
	w.i64(m.Cols)
	w.floats(m.Data)
}

func getMatrix(r *reader) *nn.Matrix {
	if r.u8() == 0 {
		return nil
	}
	m := &nn.Matrix{Rows: r.i64(), Cols: r.i64()}
	m.Data = r.floats()
	if r.err == nil && (m.Rows < 0 || m.Cols < 0 || len(m.Data) != m.Rows*m.Cols) {
		r.err = fmt.Errorf("durable: matrix shape %dx%d has %d values", m.Rows, m.Cols, len(m.Data))
	}
	return m
}

func putRecordState(w *writer, rs *core.RecordState) {
	w.i64(rs.TweetID)
	w.i64(rs.SentID)
	w.strs(rs.Tokens)
	putEntities(w, rs.Gold)
	putEntities(w, rs.Local)
	putMatrix(w, rs.Emb)
	putMentions(w, rs.Final)
}

func getRecordState(r *reader) core.RecordState {
	var rs core.RecordState
	rs.TweetID = r.i64()
	rs.SentID = r.i64()
	rs.Tokens = r.strs()
	rs.Gold = getEntities(r)
	rs.Local = getEntities(r)
	rs.Emb = getMatrix(r)
	rs.Final = getMentions(r)
	return rs
}

func putAmortState(w *writer, as *core.AmortState) {
	if as == nil {
		w.u8(0)
		return
	}
	w.u8(1)
	w.i64(as.ScannedLen)
	w.i64(as.TrieLen)
	w.i64(as.MentionCount)
	w.i64(as.Mode)
	putScans(w, as.Scans)
	w.u32(len(as.Surfaces))
	for i := range as.Surfaces {
		st := &as.Surfaces[i]
		w.str(st.Surface)
		putMentions(w, st.Pool)
		putOutcome(w, st.Skip, st.Cands)
	}
	putEmbeds(w, as.Embeds)
}

func putScans(w *writer, scans []core.ScanState) {
	w.u32(len(scans))
	for i := range scans {
		w.i64(scans[i].Key.TweetID)
		w.i64(scans[i].Key.SentID)
		putMentions(w, scans[i].Mentions)
	}
}

func getScans(r *reader) []core.ScanState {
	n := r.count(20)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]core.ScanState, n)
	for i := range out {
		out[i].Key.TweetID = r.i64()
		out[i].Key.SentID = r.i64()
		out[i].Mentions = getMentions(r)
	}
	return out
}

// putOutcome writes a surface's finished outcome: the skip flag and
// the candidate clusters.
func putOutcome(w *writer, skip bool, cands []core.CandState) {
	if skip {
		w.u8(1)
	} else {
		w.u8(0)
	}
	w.u32(len(cands))
	for j := range cands {
		cs := &cands[j]
		w.i64(cs.ClusterID)
		putInts(w, cs.Members)
		w.floats(cs.GlobalEmb)
		w.i64(int(cs.Type))
		w.f64(cs.Conf)
	}
}

func getOutcome(r *reader) (skip bool, cands []core.CandState) {
	skip = r.u8() == 1
	if nc := r.count(28); r.err == nil && nc > 0 {
		cands = make([]core.CandState, nc)
		for j := range cands {
			cs := &cands[j]
			cs.ClusterID = r.i64()
			cs.Members = getInts(r)
			cs.GlobalEmb = r.floats()
			cs.Type = types.EntityType(r.i64())
			cs.Conf = r.f64()
		}
	}
	return skip, cands
}

func putEmbeds(w *writer, embeds []core.MentionEmbed) {
	w.u32(len(embeds))
	for i := range embeds {
		e := &embeds[i]
		w.i64(e.Key.TweetID)
		w.i64(e.Key.SentID)
		w.i64(e.Span.Start)
		w.i64(e.Span.End)
		w.floats(e.Vec)
	}
}

func getEmbeds(r *reader) []core.MentionEmbed {
	n := r.count(36)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]core.MentionEmbed, n)
	for i := range out {
		e := &out[i]
		e.Key.TweetID = r.i64()
		e.Key.SentID = r.i64()
		e.Span.Start = r.i64()
		e.Span.End = r.i64()
		e.Vec = r.floats()
	}
	return out
}

func getAmortState(r *reader) *core.AmortState {
	if r.u8() == 0 {
		return nil
	}
	as := &core.AmortState{}
	as.ScannedLen = r.i64()
	as.TrieLen = r.i64()
	as.MentionCount = r.i64()
	as.Mode = r.i64()
	as.Scans = getScans(r)
	if n := r.count(13); r.err == nil && n > 0 {
		as.Surfaces = make([]core.SurfaceState, n)
		for i := range as.Surfaces {
			st := &as.Surfaces[i]
			st.Surface = r.str()
			st.Pool = getMentions(r)
			st.Skip, st.Cands = getOutcome(r)
		}
	}
	as.Embeds = getEmbeds(r)
	return as
}

func putRecordStates(w *writer, recs []core.RecordState) {
	w.u32(len(recs))
	for i := range recs {
		putRecordState(w, &recs[i])
	}
}

func getRecordStates(r *reader) []core.RecordState {
	n := r.count(45)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]core.RecordState, n)
	for i := range out {
		out[i] = getRecordState(r)
	}
	return out
}

// putWarmDelta writes the engine-state body of a delta snapshot: the
// fields of core.WarmDelta in declaration order.
func putWarmDelta(w *writer, d *core.WarmDelta) {
	if d == nil {
		w.u8(0)
		return
	}
	w.u8(1)
	w.i64(d.BaseRecords)
	w.strs(d.Surfaces)
	putRecordStates(w, d.Records)
	putScans(w, d.Finals)
	w.i64(d.ScannedLen)
	w.i64(d.TrieLen)
	w.i64(d.MentionCount)
	w.i64(d.Mode)
	putScans(w, d.Scans)
	w.u32(len(d.Pools))
	for i := range d.Pools {
		sd := &d.Pools[i]
		w.str(sd.Surface)
		w.i64(sd.PoolFrom)
		putMentions(w, sd.Pool)
		putOutcome(w, sd.Skip, sd.Cands)
	}
	w.strs(d.Deleted)
	putEmbeds(w, d.Embeds)
}

func getWarmDelta(r *reader) *core.WarmDelta {
	if r.u8() == 0 {
		return nil
	}
	d := &core.WarmDelta{}
	d.BaseRecords = r.i64()
	d.Surfaces = r.strs()
	d.Records = getRecordStates(r)
	d.Finals = getScans(r)
	d.ScannedLen = r.i64()
	d.TrieLen = r.i64()
	d.MentionCount = r.i64()
	d.Mode = r.i64()
	d.Scans = getScans(r)
	if n := r.count(21); r.err == nil && n > 0 {
		d.Pools = make([]core.SurfaceDelta, n)
		for i := range d.Pools {
			sd := &d.Pools[i]
			sd.Surface = r.str()
			sd.PoolFrom = r.i64()
			sd.Pool = getMentions(r)
			sd.Skip, sd.Cands = getOutcome(r)
		}
	}
	d.Deleted = r.strs()
	d.Embeds = getEmbeds(r)
	return d
}

func putWarmState(w *writer, ws *core.WarmState) {
	if ws == nil {
		w.u8(0)
		return
	}
	w.u8(1)
	w.str(ws.Precision)
	w.i64(ws.ShardIndex)
	w.i64(ws.ShardCount)
	w.strs(ws.Surfaces)
	putRecordStates(w, ws.Records)
	putAmortState(w, ws.Amort)
}

func getWarmState(r *reader) *core.WarmState {
	if r.u8() == 0 {
		return nil
	}
	ws := &core.WarmState{}
	ws.Precision = r.str()
	ws.ShardIndex = r.i64()
	ws.ShardCount = r.i64()
	ws.Surfaces = r.strs()
	ws.Records = getRecordStates(r)
	ws.Amort = getAmortState(r)
	return ws
}
