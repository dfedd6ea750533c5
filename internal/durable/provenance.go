// Provenance index: the in-memory Merkle state a serving process keeps
// so it can answer GET /proof requests.
//
// Every committed cycle appends one tree (its annotation leaves) and
// one chain link (the running chain hash folded with the tree root).
// The index retains per-cycle leaf hashes and annotations so it can
// emit inclusion proofs for any sentence the process ever annotated;
// roots and chain hashes are retained for the links section of each
// proof. A proof bundle is self-contained: cmd/nerprove re-derives the
// leaf bytes from the embedded annotation, folds the audit path, checks
// the chain hash, and walks the links to the head.
package durable

import (
	"fmt"
	"sort"

	"nerglobalizer/internal/binenc"
	"nerglobalizer/internal/types"
)

// provCycle is one committed cycle's provenance state.
type provCycle struct {
	seq    uint64
	anns   []SentenceAnnotation
	leaves []Hash
	root   Hash
	chain  Hash // chain hash after folding this cycle's root
}

// Provenance accumulates the per-cycle Merkle chain.
type Provenance struct {
	cycles []provCycle
	// bySent locates the (cycle, leaf) of each annotated sentence.
	// Sentences are ingested exactly once, so the mapping is unique.
	bySent map[types.SentenceKey]leafRef
	// byTweet lists each tweet's sentence keys in emission order.
	byTweet map[int][]types.SentenceKey
}

type leafRef struct {
	cycle int // index into cycles
	leaf  int // index into that cycle's leaves
}

// NewProvenance returns an empty chain.
func NewProvenance() *Provenance {
	return &Provenance{
		bySent:  make(map[types.SentenceKey]leafRef),
		byTweet: make(map[int][]types.SentenceKey),
	}
}

// AppendCycle folds one committed cycle's annotations into the chain.
func (p *Provenance) AppendCycle(seq uint64, anns []SentenceAnnotation) {
	leaves := make([]Hash, len(anns))
	for i := range anns {
		leaves[i] = hashLeaf(leafBytes(anns[i]))
	}
	root := merkleRoot(leaves)
	var prev Hash
	if n := len(p.cycles); n > 0 {
		prev = p.cycles[n-1].chain
	}
	c := provCycle{seq: seq, anns: anns, leaves: leaves, root: root, chain: chainHash(prev, root)}
	ci := len(p.cycles)
	p.cycles = append(p.cycles, c)
	for i := range anns {
		key := anns[i].Key()
		if _, dup := p.bySent[key]; !dup {
			p.byTweet[key.TweetID] = append(p.byTweet[key.TweetID], key)
		}
		p.bySent[key] = leafRef{cycle: ci, leaf: i}
	}
}

// Len reports how many cycles the chain covers.
func (p *Provenance) Len() int { return len(p.cycles) }

// Head returns the latest chain hash and its cycle seq; ok is false on
// an empty chain.
func (p *Provenance) Head() (seq uint64, head Hash, ok bool) {
	if len(p.cycles) == 0 {
		return 0, Hash{}, false
	}
	c := p.cycles[len(p.cycles)-1]
	return c.seq, c.chain, true
}

// ChainLink is one cycle's contribution to the chain, as shipped inside
// a proof bundle: every link from the proven cycle (exclusive) to the
// head (inclusive).
type ChainLink struct {
	Seq  uint64 `json:"seq"`
	Root string `json:"root"`
}

// InclusionProof proves one sentence's annotations are committed to by
// the chain head.
type InclusionProof struct {
	Seq        uint64             `json:"seq"`
	LeafIndex  int                `json:"leaf_index"`
	Annotation SentenceAnnotation `json:"annotation"`
	Path       []ProofStep        `json:"path"`
	Root       string             `json:"root"`
	PrevChain  string             `json:"prev_chain"`
	Chain      string             `json:"chain"`
}

// ProofBundle is the GET /proof response for one serving process: the
// chain head it vouches for, one inclusion proof per annotated sentence
// of the requested tweet, and the chain links tying each proven cycle
// to the head. Shard is -1 for a single-process server.
type ProofBundle struct {
	Shard   int              `json:"shard"`
	HeadSeq uint64           `json:"head_seq"`
	Head    string           `json:"head"`
	Links   []ChainLink      `json:"links"`
	Proofs  []InclusionProof `json:"proofs"`
}

// BundleForTweet builds the proof bundle for one tweet. ok is false if
// this process annotated no sentence of the tweet.
func (p *Provenance) BundleForTweet(tweetID, shard int) (*ProofBundle, bool) {
	keys := p.byTweet[tweetID]
	if len(keys) == 0 {
		return nil, false
	}
	headSeq, head, _ := p.Head()
	b := &ProofBundle{Shard: shard, HeadSeq: headSeq, Head: head.String()}
	// Links cover from the earliest proven cycle (exclusive) to the
	// head; shipping the full suffix once keeps each proof small.
	earliest := len(p.cycles)
	for _, key := range keys {
		ref := p.bySent[key]
		if ref.cycle < earliest {
			earliest = ref.cycle
		}
		c := &p.cycles[ref.cycle]
		var prev Hash
		if ref.cycle > 0 {
			prev = p.cycles[ref.cycle-1].chain
		}
		b.Proofs = append(b.Proofs, InclusionProof{
			Seq:        c.seq,
			LeafIndex:  ref.leaf,
			Annotation: c.anns[ref.leaf],
			Path:       auditPath(c.leaves, ref.leaf),
			Root:       c.root.String(),
			PrevChain:  prev.String(),
			Chain:      c.chain.String(),
		})
	}
	for ci := earliest + 1; ci < len(p.cycles); ci++ {
		b.Links = append(b.Links, ChainLink{Seq: p.cycles[ci].seq, Root: p.cycles[ci].root.String()})
	}
	return b, true
}

// CycleProv is a cycle's provenance state as stored in snapshots: seq
// plus annotations. Leaf hashes, roots, and chain hashes are recomputed
// on restore — the annotations are the ground truth.
type CycleProv struct {
	Seq         uint64
	Annotations []SentenceAnnotation
}

// Cycles exports the whole chain for a base snapshot.
func (p *Provenance) Cycles() []CycleProv { return exportCycles(p.cycles) }

// CyclesAfter exports the cycles past seq — what a delta snapshot
// extending the snapshot at seq carries.
func (p *Provenance) CyclesAfter(seq uint64) []CycleProv {
	i := sort.Search(len(p.cycles), func(i int) bool { return p.cycles[i].seq > seq })
	return exportCycles(p.cycles[i:])
}

func exportCycles(cycles []provCycle) []CycleProv {
	out := make([]CycleProv, len(cycles))
	for i := range cycles {
		out[i] = CycleProv{Seq: cycles[i].seq, Annotations: cycles[i].anns}
	}
	return out
}

// RestoreProvenance rebuilds the chain from snapshot state, recomputing
// every hash.
func RestoreProvenance(cycles []CycleProv) *Provenance {
	p := NewProvenance()
	for i := range cycles {
		p.AppendCycle(cycles[i].Seq, cycles[i].Annotations)
	}
	return p
}

func putProvCycles(w *binenc.Writer, cycles []CycleProv) {
	w.U32(len(cycles))
	for i := range cycles {
		w.U64(cycles[i].Seq)
		putAnnotations(w, cycles[i].Annotations)
	}
}

func getProvCycles(r *binenc.Reader) []CycleProv {
	n := r.Count(12)
	if r.Err != nil || n == 0 {
		return nil
	}
	out := make([]CycleProv, n)
	for i := range out {
		out[i].Seq = r.U64()
		out[i].Annotations = getAnnotations(r)
	}
	return out
}

// Verify checks one proof bundle end to end: each proof's leaf bytes
// fold through the audit path to the claimed root, the root folds onto
// the claimed previous chain hash, and the chain links walk contiguous
// cycles from the proven seq to the bundle head. Returns the number of
// verified proofs.
func (b *ProofBundle) Verify() (int, error) {
	if len(b.Proofs) == 0 {
		return 0, fmt.Errorf("durable: bundle has no proofs")
	}
	head, err := parseHash(b.Head)
	if err != nil {
		return 0, err
	}
	for i := range b.Proofs {
		pr := &b.Proofs[i]
		root, err := foldPath(hashLeaf(leafBytes(pr.Annotation)), pr.Path)
		if err != nil {
			return 0, fmt.Errorf("durable: proof %d: %w", i, err)
		}
		claimedRoot, err := parseHash(pr.Root)
		if err != nil {
			return 0, fmt.Errorf("durable: proof %d: %w", i, err)
		}
		if root != claimedRoot {
			return 0, fmt.Errorf("durable: proof %d: audit path folds to %s, root claims %s", i, root, claimedRoot)
		}
		prev, err := parseHash(pr.PrevChain)
		if err != nil {
			return 0, fmt.Errorf("durable: proof %d: %w", i, err)
		}
		chain, err := parseHash(pr.Chain)
		if err != nil {
			return 0, fmt.Errorf("durable: proof %d: %w", i, err)
		}
		if chainHash(prev, root) != chain {
			return 0, fmt.Errorf("durable: proof %d: chain hash mismatch at seq %d", i, pr.Seq)
		}
		// Walk the links from this proof's cycle to the head.
		h, seq := chain, pr.Seq
		for _, link := range b.Links {
			if link.Seq <= seq {
				continue
			}
			if link.Seq != seq+1 {
				return 0, fmt.Errorf("durable: proof %d: link gap: seq %d follows %d", i, link.Seq, seq)
			}
			lr, err := parseHash(link.Root)
			if err != nil {
				return 0, fmt.Errorf("durable: proof %d: %w", i, err)
			}
			h = chainHash(h, lr)
			seq = link.Seq
		}
		if seq != b.HeadSeq {
			return 0, fmt.Errorf("durable: proof %d: links end at seq %d, head claims %d", i, seq, b.HeadSeq)
		}
		if h != head {
			return 0, fmt.Errorf("durable: proof %d: chain walks to %s, head claims %s", i, h, b.Head)
		}
	}
	return len(b.Proofs), nil
}
