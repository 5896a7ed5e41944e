package bus

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/cache"
)

// testMachine returns the default machine with n CPUs, for tests that vary
// only the processor count.
func testMachine(n int) arch.Machine {
	m := arch.Default()
	m.NCPU = n
	return m
}

// recSink captures transactions for assertions.
type recSink struct{ txns []Txn }

func (r *recSink) Record(t Txn) { r.txns = append(r.txns, t) }

func (r *recSink) kinds() []TxnKind {
	out := make([]TxnKind, len(r.txns))
	for i, t := range r.txns {
		out[i] = t.Kind
	}
	return out
}

func TestFetchMissAndHit(t *testing.T) {
	rec := &recSink{}
	s := NewSystem(testMachine(2), rec)
	out := s.Fetch(0, 0x1004, 100)
	if !out.Missed || out.Stall != arch.MissStallCycles {
		t.Fatalf("first fetch: %+v, want miss with 35-cycle stall", out)
	}
	if out = s.Fetch(0, 0x1008, 101); out.Missed {
		t.Fatalf("same-block fetch missed: %+v", out)
	}
	if len(rec.txns) != 1 || rec.txns[0].Kind != TxnRead || rec.txns[0].Addr != 0x1000 {
		t.Fatalf("recorded %+v, want one block-aligned read", rec.txns)
	}
	if rec.txns[0].Ticks != 50 {
		t.Errorf("ticks = %d, want 50 (100 cycles / 2)", rec.txns[0].Ticks)
	}
}

func TestICachePrivacy(t *testing.T) {
	s := NewSystem(testMachine(2), nil)
	s.Fetch(0, 0x1000, 0)
	if out := s.Fetch(1, 0x1000, 1); !out.Missed {
		t.Error("CPU 1 should miss on a block only in CPU 0's I-cache")
	}
}

func TestReadSharingStates(t *testing.T) {
	s := NewSystem(testMachine(2), nil)
	a := arch.PAddr(0x2000)
	s.Read(0, a, 0)
	if s.D[0].L2.Shared(a) {
		t.Error("sole copy should be Exclusive, not Shared")
	}
	s.Read(1, a, 1)
	if !s.D[0].L2.Shared(a) || !s.D[1].L2.Shared(a) {
		t.Error("both copies should be Shared after second reader")
	}
}

func TestWriteMissInvalidatesRemote(t *testing.T) {
	rec := &recSink{}
	s := NewSystem(testMachine(2), rec)
	a := arch.PAddr(0x3000)
	s.Read(1, a, 0) // CPU 1 caches it
	out := s.Write(0, a, 1)
	if !out.Missed {
		t.Fatalf("write by non-holder should miss: %+v", out)
	}
	if s.D[1].Resident(a) {
		t.Error("remote copy not invalidated by ReadEx")
	}
	// CPU 1 re-reads: misses (this is what the classifier will call a
	// Sharing miss) and the dirty copy at CPU 0 must be supplied clean.
	out = s.Read(1, a, 2)
	if !out.Missed {
		t.Fatal("post-invalidation read should miss")
	}
	if s.D[0].L2.Dirty(a) {
		t.Error("supplier should revert to clean on remote read")
	}
	if !s.D[0].L2.Shared(a) || !s.D[1].L2.Shared(a) {
		t.Error("both copies should be Shared after read of dirty block")
	}
}

func TestWriteHitSharedUpgrades(t *testing.T) {
	rec := &recSink{}
	s := NewSystem(testMachine(2), rec)
	a := arch.PAddr(0x4000)
	s.Read(0, a, 0)
	s.Read(1, a, 1) // both Shared now
	rec.txns = nil
	out := s.Write(0, a, 2)
	if out.Missed || !out.Upgraded {
		t.Fatalf("write hit on Shared: %+v, want upgrade", out)
	}
	if len(rec.txns) != 1 || rec.txns[0].Kind != TxnUpgrade {
		t.Fatalf("recorded %v, want one upgrade", rec.kinds())
	}
	if s.D[1].Resident(a) {
		t.Error("remote copy survived upgrade")
	}
	// Subsequent writes by the owner are silent (Modified).
	rec.txns = nil
	if out := s.Write(0, a, 3); out.Upgraded || out.Missed {
		t.Errorf("write on Modified should be silent: %+v", out)
	}
	if len(rec.txns) != 0 {
		t.Errorf("unexpected transactions: %v", rec.kinds())
	}
}

func TestWriteHitExclusiveIsSilent(t *testing.T) {
	rec := &recSink{}
	s := NewSystem(testMachine(2), rec)
	a := arch.PAddr(0x5000)
	s.Read(0, a, 0) // Exclusive (no other holder)
	rec.txns = nil
	out := s.Write(0, a, 1)
	if out.Missed || out.Upgraded || len(rec.txns) != 0 {
		t.Errorf("write on Exclusive should be silent: %+v, txns %v", out, rec.kinds())
	}
}

func TestWriteBackOnDirtyEviction(t *testing.T) {
	rec := &recSink{}
	s := NewSystem(testMachine(1), rec)
	a := arch.PAddr(0x6000)
	s.Write(0, a, 0) // dirty fill
	rec.txns = nil
	// Evict from L2: same set at stride = L2 size.
	b := a + arch.PAddr(arch.DCacheL2Size)
	s.Read(0, b, 1)
	var sawWB bool
	for _, txn := range rec.txns {
		if txn.Kind == TxnWriteBack && txn.Addr == a.Block() {
			sawWB = true
		}
	}
	if !sawWB {
		t.Errorf("no write-back recorded for dirty eviction; txns %v", rec.kinds())
	}
}

func TestL2HitStall(t *testing.T) {
	s := NewSystem(testMachine(1), nil)
	a := arch.PAddr(0x7000)
	s.Read(0, a, 0)
	// Displace from L1 only.
	s.Read(0, a+arch.PAddr(arch.DCacheL1Size), 1)
	out := s.Read(0, a, 2)
	if !out.L2Hit || out.Stall != arch.L1MissL2HitCycles || out.Missed {
		t.Errorf("L2 hit outcome = %+v, want 15-cycle non-bus stall", out)
	}
}

func TestUncached(t *testing.T) {
	rec := &recSink{}
	s := NewSystem(testMachine(1), rec)
	out := s.Uncached(0, 0x8001, 10, true)
	if out.Stall != 0 {
		t.Errorf("stall-free uncached stalled: %+v", out)
	}
	out = s.Uncached(0, 0x8002, 11, false)
	if out.Stall != arch.MissStallCycles {
		t.Errorf("uncached device read should stall: %+v", out)
	}
	if len(rec.txns) != 2 || rec.txns[0].Kind != TxnUncached {
		t.Fatalf("recorded %v", rec.kinds())
	}
	// Uncached accesses never enter the caches.
	if s.D[0].Resident(0x8000) {
		t.Error("uncached access polluted the data cache")
	}
}

func TestInvalidateCodeFrameFlushesEverything(t *testing.T) {
	// The machine has no selective I-cache invalidation: a code-page
	// reallocation flushes the whole I-cache on every CPU.
	s := NewSystem(testMachine(2), nil)
	f := uint32(12)
	base := arch.FrameAddr(f)
	other := arch.PAddr(0x40000) // unrelated code
	for i := 0; i < 8; i++ {
		s.Fetch(0, base+arch.PAddr(i*arch.BlockSize), 0)
		s.Fetch(1, base+arch.PAddr(i*arch.BlockSize), 0)
	}
	s.Fetch(0, other, 0)
	if n := s.InvalidateCodeFrame(f, 1); n != 17 {
		t.Errorf("InvalidateCodeFrame = %d, want 17 (total flush)", n)
	}
	if out := s.Fetch(0, base, 1); !out.Missed {
		t.Error("fetch after flush should miss")
	}
	if out := s.Fetch(0, other, 1); !out.Missed {
		t.Error("unrelated code must also miss after the total flush")
	}
	// Data caches are unaffected (snooping keeps them coherent).
	s.Read(0, 0x9000, 2)
	s.InvalidateCodeFrame(f, 3)
	if out := s.Read(0, 0x9000, 3); out.Missed {
		t.Error("data cache was flushed by I-cache invalidation")
	}
}

func TestStatsTransactions(t *testing.T) {
	s := NewSystem(testMachine(2), nil)
	s.Fetch(0, 0x100, 0)  // read
	s.Read(0, 0x9000, 1)  // read
	s.Write(1, 0x9000, 2) // readex
	s.Read(0, 0x9000, 3)  // read (sharing refetch)
	s.Write(0, 0x9000, 4) // upgrade (shared after refetch)
	s.Uncached(0, 0x11, 5, true)
	st := s.Stats
	if st.Reads != 3 || st.ReadExs != 1 || st.Upgrades != 1 || st.Uncacheds != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Transactions() != 6 {
		t.Errorf("Transactions() = %d, want 6", st.Transactions())
	}
}

// Property-like sweep: after any interleaving of reads/writes by two CPUs
// to a small address pool, at most one cache holds any block dirty, and a
// dirty copy is never Shared.
func TestCoherenceInvariant(t *testing.T) {
	s := NewSystem(testMachine(3), nil)
	addrs := []arch.PAddr{0x100, 0x200, 0x300, 0x100 + arch.PAddr(arch.DCacheL2Size)}
	ops := 0
	for i := 0; i < 4000; i++ {
		c := arch.CPUID(i % 3)
		a := addrs[(i*7)%len(addrs)]
		if (i*13)%3 == 0 {
			s.Write(c, a, arch.Cycles(i))
		} else {
			s.Read(c, a, arch.Cycles(i))
		}
		ops++
		for _, ad := range addrs {
			dirtyHolders := 0
			for q := 0; q < s.N; q++ {
				if s.D[q].L2.Dirty(ad) {
					dirtyHolders++
					if s.D[q].L2.Shared(ad) {
						t.Fatalf("op %d: CPU %d holds %#x dirty AND shared", i, q, ad)
					}
				}
			}
			if dirtyHolders > 1 {
				t.Fatalf("op %d: %d dirty holders of %#x", i, dirtyHolders, ad)
			}
		}
	}
	_ = ops
}

func TestCacheGeometryOfSystem(t *testing.T) {
	s := NewSystem(testMachine(4), nil)
	if len(s.I) != 4 || len(s.D) != 4 {
		t.Fatal("wrong CPU count")
	}
	if s.I[0].Size() != arch.ICacheSize || s.I[0].Assoc() != 1 {
		t.Error("I-cache geometry wrong")
	}
	if s.D[0].L1.Size() != arch.DCacheL1Size || s.D[0].L2.Size() != arch.DCacheL2Size {
		t.Error("D-cache geometry wrong")
	}
	var _ *cache.Cache = s.D[0].L2
}

func TestBypassTransfers(t *testing.T) {
	rec := &recSink{}
	s := NewSystem(testMachine(2), rec)
	a := arch.PAddr(0x9000)
	// CPU 1 caches the block; a bypass write must invalidate it without
	// filling CPU 0's cache.
	s.Read(1, a, 0)
	out := s.Bypass(0, a, 4, true, 1)
	if !out.Missed || out.Stall != arch.MissStallCycles {
		t.Fatalf("bypass outcome %+v", out)
	}
	if s.D[1].Resident(a) {
		t.Error("bypass write left a stale remote copy")
	}
	if s.D[0].Resident(a) {
		t.Error("bypass filled the local cache")
	}
	// The monitor sees one uncached, block-aligned transaction.
	last := rec.txns[len(rec.txns)-1]
	if last.Kind != TxnUncached || last.Addr%arch.BlockSize != 0 {
		t.Errorf("bypass txn = %+v", last)
	}
	// A burst invalidates its whole extent.
	s.Read(1, a+16, 2)
	s.Read(1, a+48, 3)
	s.Bypass(0, a, 4, true, 4)
	if s.D[1].Resident(a+16) || s.D[1].Resident(a+48) {
		t.Error("burst bypass missed blocks in its extent")
	}
	// Reads do not invalidate.
	s.Read(1, a, 5)
	s.Bypass(0, a, 1, false, 6)
	if !s.D[1].Resident(a) {
		t.Error("bypass read invalidated a remote copy")
	}
}

func TestWriteUpdateProtocol(t *testing.T) {
	rec := &recSink{}
	s := NewSystem(testMachine(2), rec)
	s.Proto = WriteUpdate
	a := arch.PAddr(0xA000)
	s.Read(0, a, 0)
	s.Read(1, a, 1) // both shared
	rec.txns = nil
	out := s.Write(0, a, 2)
	if !out.Upgraded || out.Missed {
		t.Fatalf("shared write under update: %+v", out)
	}
	if len(rec.txns) != 1 || rec.txns[0].Kind != TxnUpdate {
		t.Fatalf("recorded %v, want one update broadcast", rec.kinds())
	}
	// The remote copy SURVIVES (no sharing miss on re-read).
	if !s.D[1].Resident(a) {
		t.Fatal("update protocol invalidated the remote copy")
	}
	if out := s.Read(1, a, 3); out.Missed {
		t.Error("re-read after update should hit (no sharing miss)")
	}
	// But every subsequent shared write pays a bus transaction.
	rec.txns = nil
	s.Write(0, a, 4)
	s.Write(0, a, 5)
	if len(rec.txns) != 2 {
		t.Errorf("each shared write should broadcast; got %v", rec.kinds())
	}
	// Write miss with a remote holder: one combined fetch-and-broadcast.
	b := arch.PAddr(0xB000)
	s.Read(1, b, 6)
	rec.txns = nil
	if out := s.Write(0, b, 7); !out.Missed {
		t.Fatal("write miss expected")
	}
	if len(rec.txns) != 1 || rec.txns[0].Kind != TxnUpdate {
		t.Errorf("write-miss broadcast: %v", rec.kinds())
	}
	if !s.D[1].Resident(b) {
		t.Error("remote copy should survive the write-miss broadcast")
	}
}
