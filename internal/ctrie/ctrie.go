// Package ctrie implements the CandidatePrefixTrie (CTrie) from the
// NER Globalizer paper: a case-insensitive prefix trie forest over
// token sequences. Local NER registers seed candidate surface forms in
// the CTrie; the Global NER mention-extraction step then scans each
// sentence against the trie to find every mention — including those
// Local NER missed — using a longest-subsequence match.
package ctrie

import (
	"strings"
	"unicode/utf8"
)

// node is one trie node, keyed by lower-cased token.
type node struct {
	children map[string]*node
	// terminal marks that the path from the root to this node spells a
	// registered candidate surface form.
	terminal bool
	// surface is the canonical (lower-cased, space-joined) form of the
	// path from the root, set when terminal. Materializing it once at
	// Insert time lets Scan return matches without re-joining tokens on
	// every hit — the former join was the dominant allocation of the
	// mention-extraction hot path.
	surface string
}

func newNode() *node { return &node{children: make(map[string]*node)} }

// Trie is a prefix trie forest over token sequences. Matching is
// case-insensitive; surface forms are stored in canonical lower-cased
// form. The zero value is not usable; call New.
type Trie struct {
	root *node
	size int
}

// New returns an empty CTrie.
func New() *Trie { return &Trie{root: newNode()} }

// Len returns the number of registered surface forms.
func (t *Trie) Len() int { return t.size }

// Insert registers a candidate surface form given as a token sequence.
// Tokens are lower-cased. Inserting an empty sequence or a duplicate is
// a no-op; Insert reports whether the form was newly added.
func (t *Trie) Insert(tokens []string) bool {
	if len(tokens) == 0 {
		return false
	}
	n := t.root
	// One builder pass constructs the canonical surface alongside the
	// node walk, so Scan never has to join tokens per match.
	var b strings.Builder
	for i, tok := range tokens {
		key := strings.ToLower(tok)
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(key)
		child, ok := n.children[key]
		if !ok {
			child = newNode()
			n.children[key] = child
		}
		n = child
	}
	if n.terminal {
		return false
	}
	n.terminal = true
	n.surface = b.String()
	t.size++
	return true
}

// InsertSurface registers a surface form given as a single
// space-separated string.
func (t *Trie) InsertSurface(surface string) bool {
	return t.Insert(strings.Fields(surface))
}

// Contains reports whether the exact token sequence is a registered
// surface form (case-insensitive).
func (t *Trie) Contains(tokens []string) bool {
	n := t.root
	for _, tok := range tokens {
		child, ok := n.children[strings.ToLower(tok)]
		if !ok {
			return false
		}
		n = child
	}
	return n.terminal
}

// ContainsSurface reports whether the space-separated surface form is
// registered.
func (t *Trie) ContainsSurface(surface string) bool {
	return t.Contains(strings.Fields(surface))
}

// Surfaces returns all registered surface forms in canonical form, in
// depth-first order.
func (t *Trie) Surfaces() []string {
	var out []string
	var walk func(n *node)
	walk = func(n *node) {
		if n.terminal {
			out = append(out, n.surface)
		}
		for _, child := range n.children {
			walk(child)
		}
	}
	walk(t.root)
	return out
}

// Match is one surface-form occurrence found by Scan: the half-open
// token range [Start, End) and the canonical surface form it matched.
type Match struct {
	Start, End int
	Surface    string
}

// Scan implements the mention-extraction walk of Section V-A: it
// scans the sentence left to right with an incrementally growing
// window, following CTrie paths with case-insensitive comparisons, and
// records the set of longest non-overlapping subsequences that match
// registered surface forms.
//
// When a window's match fails, the scan restarts after the last
// recorded match; if nothing in the window matched any CTrie path, the
// new window starts at the token immediately right of the previous
// window's first token.
func (t *Trie) Scan(tokens []string) []Match {
	var out []Match
	var buf []byte
	i := 0
	for i < len(tokens) {
		n := t.root
		bestEnd := -1
		var bestSurface string
		j := i
		for j < len(tokens) {
			child, ok := childFold(n, tokens[j], &buf)
			if !ok {
				break
			}
			n = child
			j++
			if n.terminal {
				bestEnd = j
				bestSurface = n.surface
			}
		}
		if bestEnd > 0 {
			out = append(out, Match{Start: i, End: bestEnd, Surface: bestSurface})
			i = bestEnd
		} else {
			i++
		}
	}
	return out
}

// childFold looks up tok's case-folded child without allocating per
// probe: already-lower-case ASCII tokens index the map directly, and
// mixed-case ASCII tokens are lowered into the caller's reusable
// scratch buffer, whose string conversion the map index elides. Only
// non-ASCII tokens fall back to strings.ToLower.
func childFold(n *node, tok string, buf *[]byte) (*node, bool) {
	lower := true
	for i := 0; i < len(tok); i++ {
		c := tok[i]
		if c >= utf8.RuneSelf {
			child, ok := n.children[strings.ToLower(tok)]
			return child, ok
		}
		if 'A' <= c && c <= 'Z' {
			lower = false
		}
	}
	if lower {
		child, ok := n.children[tok]
		return child, ok
	}
	b := (*buf)[:0]
	for i := 0; i < len(tok); i++ {
		c := tok[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		b = append(b, c)
	}
	*buf = b
	child, ok := n.children[string(b)]
	return child, ok
}
