package merkle

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func TestEmptyTreesAgree(t *testing.T) {
	a, b := New(10), New(10)
	if a.Root() != b.Root() {
		t.Fatalf("empty roots differ: %x vs %x", a.Root(), b.Root())
	}
	if a.Records() != 0 {
		t.Fatalf("empty tree reports %d records", a.Records())
	}
}

func TestIncrementalMatchesRebuild(t *testing.T) {
	// Applying a mutation history incrementally (Add/Replace/Remove) must
	// land on the same tree as rebuilding from the final state.
	rng := rand.New(rand.NewSource(42))
	inc := New(8)
	type rec struct {
		ver  int64
		hash uint64
	}
	state := map[string]rec{}
	keyHash := func(k string) uint32 { return uint32(hashString(fnvOffset, k)) }
	for i := 0; i < 5000; i++ {
		k := fmt.Sprintf("key-%03d", rng.Intn(400))
		switch {
		case rng.Intn(10) == 0: // delete
			if old, ok := state[k]; ok {
				inc.Remove(keyHash(k), old.hash)
				delete(state, k)
			}
		default: // write a new version
			ver := int64(i + 1)
			h := RecordHash(k, ver, "origin-a", false)
			if old, ok := state[k]; ok {
				inc.Replace(keyHash(k), old.hash, h)
			} else {
				inc.Add(keyHash(k), h)
			}
			state[k] = rec{ver: ver, hash: h}
		}
	}
	rebuilt := New(8)
	for k, r := range state {
		rebuilt.Add(keyHash(k), r.hash)
	}
	if inc.Root() != rebuilt.Root() {
		t.Fatalf("incremental root %x != rebuilt root %x", inc.Root(), rebuilt.Root())
	}
	if inc.Records() != int64(len(state)) {
		t.Fatalf("record count drifted: %d vs %d", inc.Records(), len(state))
	}
	for leaf := uint32(0); leaf < uint32(inc.Leaves()); leaf++ {
		if got, want := inc.Node(inc.LeafBits(), leaf), rebuilt.Node(rebuilt.LeafBits(), leaf); got != want {
			t.Fatalf("leaf %d diverged: %x vs %x", leaf, got, want)
		}
	}
}

func TestDescentLocalizesDivergence(t *testing.T) {
	// Two trees differing in exactly one record must disagree on exactly the
	// root-to-leaf path covering that record's leaf, and agree elsewhere.
	a, b := New(10), New(10)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("rec-%05d", i)
		h := RecordHash(k, int64(rng.Intn(1000)), "o", false)
		kh := uint32(hashString(fnvOffset, k))
		a.Add(kh, h)
		b.Add(kh, h)
	}
	divergedKey := "rec-00042"
	kh := uint32(hashString(fnvOffset, divergedKey))
	b.Replace(kh, RecordHash(divergedKey, 0, "", false), RecordHash(divergedKey, 0, "", false)) // no-op sanity
	b.Add(kh, RecordHash(divergedKey, 99999, "other", false))                                   // extra version on b

	wantLeaf := a.Leaf(kh)
	// Walk the descent exactly as the anti-entropy round does.
	frontier := []uint32{0}
	for level := 0; level < a.LeafBits(); level++ {
		var next []uint32
		for _, idx := range frontier {
			for _, child := range []uint32{2 * idx, 2*idx + 1} {
				if a.Node(level+1, child) != b.Node(level+1, child) {
					next = append(next, child)
				}
			}
		}
		if len(next) != 1 {
			t.Fatalf("level %d: %d divergent nodes, want 1", level+1, len(next))
		}
		frontier = next
	}
	if frontier[0] != wantLeaf {
		t.Fatalf("descent landed on leaf %d, want %d", frontier[0], wantLeaf)
	}
	// Every other leaf agrees.
	for leaf := uint32(0); leaf < uint32(a.Leaves()); leaf++ {
		equal := a.Node(a.LeafBits(), leaf) == b.Node(b.LeafBits(), leaf)
		if leaf == wantLeaf && equal {
			t.Fatalf("diverged leaf %d compares equal", leaf)
		}
		if leaf != wantLeaf && !equal {
			t.Fatalf("leaf %d diverged unexpectedly", leaf)
		}
	}
}

func TestNodesBatchMatchesNode(t *testing.T) {
	tr := New(6)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		tr.Add(rng.Uint32(), rng.Uint64())
	}
	idx := []uint32{0, 1, 2, 3, 62, 63, 64, 1 << 30} // includes out-of-range
	got := tr.Nodes(6, idx)
	for i, ix := range idx {
		if got[i] != tr.Node(6, ix) {
			t.Fatalf("Nodes[%d] = %x, Node = %x", i, got[i], tr.Node(6, ix))
		}
	}
	if got[len(got)-1] != 0 {
		t.Fatalf("out-of-range index returned %x, want 0", got[len(got)-1])
	}
}

func TestOrderIndependence(t *testing.T) {
	// XOR leaves commute: insertion order must not matter.
	a, b := New(8), New(8)
	hashes := make([]uint64, 300)
	keys := make([]uint32, 300)
	rng := rand.New(rand.NewSource(11))
	for i := range hashes {
		hashes[i] = rng.Uint64()
		keys[i] = rng.Uint32()
		a.Add(keys[i], hashes[i])
	}
	perm := rng.Perm(len(hashes))
	for _, i := range perm {
		b.Add(keys[i], hashes[i])
	}
	if a.Root() != b.Root() {
		t.Fatalf("order changed the root: %x vs %x", a.Root(), b.Root())
	}
}

func TestConcurrentUpdatesRace(t *testing.T) {
	// Hammer a tree with concurrent writers and readers; -race is the real
	// assertion, the final root equality the functional one.
	tr := New(10)
	const writers = 8
	const perWriter = 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWriter; i++ {
				k := uint32(rng.Intn(1 << 16))
				tr.Replace(k<<16, uint64(w*perWriter+i), uint64(w*perWriter+i+1))
				if i%64 == 0 {
					tr.Root()
					tr.Nodes(5, []uint32{0, 1, 2, 3})
				}
			}
		}(w)
	}
	wg.Wait()
	// Each writer net-applied XOR of (first, last+...) pairs; recompute the
	// expected tree serially.
	want := New(10)
	for w := 0; w < writers; w++ {
		rng := rand.New(rand.NewSource(int64(w)))
		for i := 0; i < perWriter; i++ {
			k := uint32(rng.Intn(1 << 16))
			want.Replace(k<<16, uint64(w*perWriter+i), uint64(w*perWriter+i+1))
		}
	}
	if tr.Root() != want.Root() {
		t.Fatalf("concurrent root %x != serial root %x", tr.Root(), want.Root())
	}
}

func TestLeafRange(t *testing.T) {
	tr := New(10)
	for leaf := uint32(0); leaf < uint32(tr.Leaves()); leaf++ {
		lo, hi := tr.LeafRange(leaf)
		if tr.Leaf(lo) != leaf {
			t.Fatalf("lo bound of leaf %d maps to %d", leaf, tr.Leaf(lo))
		}
		if hi != 0 && tr.Leaf(hi-1) != leaf {
			t.Fatalf("hi-1 bound of leaf %d maps to %d", leaf, tr.Leaf(hi-1))
		}
	}
}

func BenchmarkReplace(b *testing.B) {
	tr := New(10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Replace(uint32(i), uint64(i), uint64(i+1))
	}
}

func BenchmarkRoot(b *testing.B) {
	tr := New(10)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		tr.Add(rng.Uint32(), rng.Uint64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Root()
	}
}
