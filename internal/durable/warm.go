// Binary codec for core.WarmState — the engine-state body of a
// snapshot. Field order here is the format; any change needs a
// snapshot version bump in snapshot.go. Since version 3 a record's token
// matrix is written absent and a candidate's global embedding empty;
// both slots are still read, checked and dropped, so version 2 decodes.
package durable

import (
	"fmt"

	"nerglobalizer/internal/binenc"
	"nerglobalizer/internal/core"
	"nerglobalizer/internal/types"
)

func putInts(w *binenc.Writer, xs []int) {
	w.U32(len(xs))
	for _, x := range xs {
		w.I64(x)
	}
}

func getInts(r *binenc.Reader) []int {
	n := r.Count(8)
	if r.Err != nil || n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = r.I64()
	}
	return out
}

func putEntities(w *binenc.Writer, es []types.Entity) {
	w.U32(len(es))
	for _, e := range es {
		w.I64(e.Start)
		w.I64(e.End)
		w.I64(int(e.Type))
	}
}

func getEntities(r *binenc.Reader) []types.Entity {
	n := r.Count(24)
	if r.Err != nil || n == 0 {
		return nil
	}
	out := make([]types.Entity, n)
	for i := range out {
		out[i].Start = r.I64()
		out[i].End = r.I64()
		out[i].Type = types.EntityType(r.I64())
	}
	return out
}

func putMention(w *binenc.Writer, m types.Mention) {
	w.I64(m.Key.TweetID)
	w.I64(m.Key.SentID)
	w.I64(m.Span.Start)
	w.I64(m.Span.End)
	w.Str(m.Surface)
	w.I64(int(m.Type))
	if m.FromLocalNER {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

func getMention(r *binenc.Reader) types.Mention {
	var m types.Mention
	m.Key.TweetID = r.I64()
	m.Key.SentID = r.I64()
	m.Span.Start = r.I64()
	m.Span.End = r.I64()
	m.Surface = r.Str()
	m.Type = types.EntityType(r.I64())
	m.FromLocalNER = r.U8() == 1
	return m
}

// wireMentionMin is the smallest encoded mention: four i64s, an empty
// string, a type and a flag.
const wireMentionMin = 8*5 + 4 + 1

func putMentions(w *binenc.Writer, ms []types.Mention) {
	w.U32(len(ms))
	for _, m := range ms {
		putMention(w, m)
	}
}

func getMentions(r *binenc.Reader) []types.Mention {
	n := r.Count(wireMentionMin)
	if r.Err != nil || n == 0 {
		return nil
	}
	out := make([]types.Mention, n)
	for i := range out {
		out[i] = getMention(r)
	}
	return out
}

// skipMatrix reads a record's retired token-matrix slot, checking the
// shape of a version-2 file's matrix and dropping its values.
func skipMatrix(r *binenc.Reader) {
	if r.U8() == 0 {
		return
	}
	rows, cols := r.I64(), r.I64()
	if n := len(r.Floats()); r.Err == nil && !binenc.ShapeOK(rows, cols, n) {
		r.Err = fmt.Errorf("durable: matrix shape %dx%d has %d values", rows, cols, n)
	}
}

func putRecordState(w *binenc.Writer, rs *core.RecordState) {
	w.I64(rs.TweetID)
	w.I64(rs.SentID)
	w.Strs(rs.Tokens)
	putEntities(w, rs.Gold)
	putEntities(w, rs.Local)
	w.U8(0) // the retired token matrix, absent
	putMentions(w, rs.Final)
}

func getRecordState(r *binenc.Reader) core.RecordState {
	var rs core.RecordState
	rs.TweetID = r.I64()
	rs.SentID = r.I64()
	rs.Tokens = r.Strs()
	rs.Gold = getEntities(r)
	rs.Local = getEntities(r)
	skipMatrix(r)
	rs.Final = getMentions(r)
	return rs
}

func putAmortState(w *binenc.Writer, as *core.AmortState) {
	if as == nil {
		w.U8(0)
		return
	}
	w.U8(1)
	w.I64(as.ScannedLen)
	w.I64(as.TrieLen)
	w.I64(as.MentionCount)
	w.I64(as.Mode)
	putScans(w, as.Scans)
	w.U32(len(as.Surfaces))
	for i := range as.Surfaces {
		st := &as.Surfaces[i]
		w.Str(st.Surface)
		putMentions(w, st.Pool)
		putOutcome(w, st.Skip, st.Cands)
	}
	putEmbeds(w, as.Embeds)
}

func putScans(w *binenc.Writer, scans []core.ScanState) {
	w.U32(len(scans))
	for i := range scans {
		w.I64(scans[i].Key.TweetID)
		w.I64(scans[i].Key.SentID)
		putMentions(w, scans[i].Mentions)
	}
}

func getScans(r *binenc.Reader) []core.ScanState {
	n := r.Count(20)
	if r.Err != nil || n == 0 {
		return nil
	}
	out := make([]core.ScanState, n)
	for i := range out {
		out[i].Key.TweetID = r.I64()
		out[i].Key.SentID = r.I64()
		out[i].Mentions = getMentions(r)
	}
	return out
}

// putOutcome writes a surface's finished outcome: the skip flag and
// the candidate clusters.
func putOutcome(w *binenc.Writer, skip bool, cands []core.CandState) {
	if skip {
		w.U8(1)
	} else {
		w.U8(0)
	}
	w.U32(len(cands))
	for j := range cands {
		cs := &cands[j]
		w.I64(cs.ClusterID)
		putInts(w, cs.Members)
		w.Floats(nil) // the retired global embedding, empty
		w.I64(int(cs.Type))
		w.F64(cs.Conf)
	}
}

func getOutcome(r *binenc.Reader) (skip bool, cands []core.CandState) {
	skip = r.U8() == 1
	if nc := r.Count(28); r.Err == nil && nc > 0 {
		cands = make([]core.CandState, nc)
		for j := range cands {
			cs := &cands[j]
			cs.ClusterID = r.I64()
			cs.Members = getInts(r)
			r.Floats() // the retired global embedding
			cs.Type = types.EntityType(r.I64())
			cs.Conf = r.F64()
		}
	}
	return skip, cands
}

func putEmbeds(w *binenc.Writer, embeds []core.MentionEmbed) {
	w.U32(len(embeds))
	for i := range embeds {
		e := &embeds[i]
		w.I64(e.Key.TweetID)
		w.I64(e.Key.SentID)
		w.I64(e.Span.Start)
		w.I64(e.Span.End)
		w.Floats(e.Vec)
	}
}

func getEmbeds(r *binenc.Reader) []core.MentionEmbed {
	n := r.Count(36)
	if r.Err != nil || n == 0 {
		return nil
	}
	out := make([]core.MentionEmbed, n)
	for i := range out {
		e := &out[i]
		e.Key.TweetID = r.I64()
		e.Key.SentID = r.I64()
		e.Span.Start = r.I64()
		e.Span.End = r.I64()
		e.Vec = r.Floats()
	}
	return out
}

func getAmortState(r *binenc.Reader) *core.AmortState {
	if r.U8() == 0 {
		return nil
	}
	as := &core.AmortState{}
	as.ScannedLen = r.I64()
	as.TrieLen = r.I64()
	as.MentionCount = r.I64()
	as.Mode = r.I64()
	as.Scans = getScans(r)
	if n := r.Count(13); r.Err == nil && n > 0 {
		as.Surfaces = make([]core.SurfaceState, n)
		for i := range as.Surfaces {
			st := &as.Surfaces[i]
			st.Surface = r.Str()
			st.Pool = getMentions(r)
			st.Skip, st.Cands = getOutcome(r)
		}
	}
	as.Embeds = getEmbeds(r)
	return as
}

func putRecordStates(w *binenc.Writer, recs []core.RecordState) {
	w.U32(len(recs))
	for i := range recs {
		putRecordState(w, &recs[i])
	}
}

func getRecordStates(r *binenc.Reader) []core.RecordState {
	n := r.Count(45)
	if r.Err != nil || n == 0 {
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
func putWarmDelta(w *binenc.Writer, d *core.WarmDelta) {
	if d == nil {
		w.U8(0)
		return
	}
	w.U8(1)
	w.I64(d.BaseRecords)
	w.Strs(d.Surfaces)
	putRecordStates(w, d.Records)
	putScans(w, d.Finals)
	w.I64(d.ScannedLen)
	w.I64(d.TrieLen)
	w.I64(d.MentionCount)
	w.I64(d.Mode)
	putScans(w, d.Scans)
	w.U32(len(d.Pools))
	for i := range d.Pools {
		sd := &d.Pools[i]
		w.Str(sd.Surface)
		w.I64(sd.PoolFrom)
		putMentions(w, sd.Pool)
		putOutcome(w, sd.Skip, sd.Cands)
	}
	w.Strs(d.Deleted)
	putEmbeds(w, d.Embeds)
}

func getWarmDelta(r *binenc.Reader) *core.WarmDelta {
	if r.U8() == 0 {
		return nil
	}
	d := &core.WarmDelta{}
	d.BaseRecords = r.I64()
	d.Surfaces = r.Strs()
	d.Records = getRecordStates(r)
	d.Finals = getScans(r)
	d.ScannedLen = r.I64()
	d.TrieLen = r.I64()
	d.MentionCount = r.I64()
	d.Mode = r.I64()
	d.Scans = getScans(r)
	if n := r.Count(21); r.Err == nil && n > 0 {
		d.Pools = make([]core.SurfaceDelta, n)
		for i := range d.Pools {
			sd := &d.Pools[i]
			sd.Surface = r.Str()
			sd.PoolFrom = r.I64()
			sd.Pool = getMentions(r)
			sd.Skip, sd.Cands = getOutcome(r)
		}
	}
	d.Deleted = r.Strs()
	d.Embeds = getEmbeds(r)
	return d
}

func putWarmState(w *binenc.Writer, ws *core.WarmState) {
	if ws == nil {
		w.U8(0)
		return
	}
	w.U8(1)
	w.Str(ws.Precision)
	w.I64(ws.ShardIndex)
	w.I64(ws.ShardCount)
	w.Strs(ws.Surfaces)
	putRecordStates(w, ws.Records)
	putAmortState(w, ws.Amort)
}

func getWarmState(r *binenc.Reader) *core.WarmState {
	if r.U8() == 0 {
		return nil
	}
	ws := &core.WarmState{}
	ws.Precision = r.Str()
	ws.ShardIndex = r.I64()
	ws.ShardCount = r.I64()
	ws.Surfaces = r.Strs()
	ws.Records = getRecordStates(r)
	ws.Amort = getAmortState(r)
	return ws
}
