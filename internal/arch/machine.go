// Machine is the runtime machine model: everything about the simulated
// hardware that is configuration rather than ISA. The package-level
// constants describe the measured 4D/340; Machine carries the same
// quantities as fields so a single binary can sweep geometries (cache
// sizes, memory size, CPU count) without recompiling. Block size and page
// size stay ISA-level constants — the address-arithmetic fast paths
// (PAddr.Block, PAddr.Frame, the direct-mapped index computation) depend
// on them being compile-time values.
package arch

import "fmt"

// ReservedFrames is the number of physical page frames the kernel reserves
// for its own image and static structures on the default machine; the
// remaining frames are pageable. kmem computes the actual reservation from
// the Machine (growing it if a large I-cache inflates the kernel text), but
// starts from this floor so the default layout is bit-for-bit the
// historical one.
const ReservedFrames = 1600

// Machine describes one simulated hardware configuration. The zero value
// is not valid; start from Default() and override fields, then Validate.
// All fields are scalars, so Machine is comparable — a zero-valued
// Config.Machine is detected with m == (Machine{}).
type Machine struct {
	// NCPU is the number of processors.
	NCPU int

	// ClockMHz is the processor clock rate. Cycle-time conversions
	// (Cycles.NS) remain fixed at the default machine's 30 ns cycle;
	// ClockMHz is carried for report headers and derived figures.
	ClockMHz int

	// ICacheSize and ICacheAssoc describe the per-CPU instruction cache.
	ICacheSize  int
	ICacheAssoc int

	// DCacheL1Size/Assoc describe the per-CPU first-level data cache.
	DCacheL1Size  int
	DCacheL1Assoc int

	// DCacheL2Size/Assoc describe the per-CPU second-level (coherence
	// level) data cache.
	DCacheL2Size  int
	DCacheL2Assoc int

	// MemBytes is the main-memory size; it must be a whole number of
	// pages and large enough to hold the kernel's reserved frames.
	MemBytes int

	// TLBEntries is the size of the per-CPU fully-associative TLB.
	TLBEntries int

	// MissStallCycles is the CPU stall per bus access.
	MissStallCycles Cycles

	// L1MissL2HitCycles is the stall when a data reference misses the
	// first-level cache but hits the second level.
	L1MissL2HitCycles Cycles
}

// Default returns the measured SGI 4D/340: the machine the package-level
// constants describe, field for field.
func Default() Machine {
	return Machine{
		NCPU:              DefaultCPUs,
		ClockMHz:          ClockMHz,
		ICacheSize:        ICacheSize,
		ICacheAssoc:       1,
		DCacheL1Size:      DCacheL1Size,
		DCacheL1Assoc:     1,
		DCacheL2Size:      DCacheL2Size,
		DCacheL2Assoc:     1,
		MemBytes:          MemBytes,
		TLBEntries:        TLBEntries,
		MissStallCycles:   MissStallCycles,
		L1MissL2HitCycles: L1MissL2HitCycles,
	}
}

// MemFrames returns the number of physical page frames.
func (m Machine) MemFrames() int { return m.MemBytes / PageSize }

// powerOfTwo reports whether x is a positive power of two.
func powerOfTwo(x int) bool { return x > 0 && x&(x-1) == 0 }

// minICacheSize is the smallest I-cache the kernel-text layout supports:
// the kernel image (~160 KB of routine inventory) must fit in 13 I-cache
// banks, and 13 × 16 KB = 208 KB is the smallest bank multiple that holds
// it.
const minICacheSize = 16 * 1024

// validateCache checks one cache's size/associativity pair, returning an
// error that names the offending field.
func validateCache(sizeField string, size int, assocField string, assoc int) error {
	if !powerOfTwo(size) || size < BlockSize {
		return fmt.Errorf("arch.Machine: %s %d: must be a power of two ≥ block size %d",
			sizeField, size, BlockSize)
	}
	if assoc < 1 {
		return fmt.Errorf("arch.Machine: %s %d: must be ≥ 1", assocField, assoc)
	}
	if !powerOfTwo(assoc) {
		return fmt.Errorf("arch.Machine: %s %d: must be a power of two (sets must stay a power of two)",
			assocField, assoc)
	}
	if assoc*BlockSize > size {
		return fmt.Errorf("arch.Machine: %s %d exceeds %s %d / block size %d",
			assocField, assoc, sizeField, size, BlockSize)
	}
	return nil
}

// Validate checks the configuration for degeneracies the simulator cannot
// run (or could only run meaninglessly), returning an error naming the bad
// field. A nil return means every layer can be constructed from m.
func (m Machine) Validate() error {
	if m.NCPU < 1 {
		return fmt.Errorf("arch.Machine: NCPU %d: must be ≥ 1", m.NCPU)
	}
	if m.ClockMHz < 1 {
		return fmt.Errorf("arch.Machine: ClockMHz %d: must be ≥ 1", m.ClockMHz)
	}
	if err := validateCache("ICacheSize", m.ICacheSize, "ICacheAssoc", m.ICacheAssoc); err != nil {
		return err
	}
	if m.ICacheSize < minICacheSize {
		return fmt.Errorf("arch.Machine: ICacheSize %d: kernel text needs at least %d (13 banks must hold the kernel image)",
			m.ICacheSize, minICacheSize)
	}
	if err := validateCache("DCacheL1Size", m.DCacheL1Size, "DCacheL1Assoc", m.DCacheL1Assoc); err != nil {
		return err
	}
	if err := validateCache("DCacheL2Size", m.DCacheL2Size, "DCacheL2Assoc", m.DCacheL2Assoc); err != nil {
		return err
	}
	if m.DCacheL1Size > m.DCacheL2Size {
		return fmt.Errorf("arch.Machine: DCacheL1Size %d exceeds DCacheL2Size %d",
			m.DCacheL1Size, m.DCacheL2Size)
	}
	if m.MemBytes <= 0 || m.MemBytes%PageSize != 0 {
		return fmt.Errorf("arch.Machine: MemBytes %d: must be a positive multiple of the page size %d",
			m.MemBytes, PageSize)
	}
	if m.MemFrames() <= ReservedFrames {
		return fmt.Errorf("arch.Machine: MemBytes %d: %d frames is not larger than the kernel's %d reserved frames",
			m.MemBytes, m.MemFrames(), ReservedFrames)
	}
	if m.TLBEntries < 1 {
		return fmt.Errorf("arch.Machine: TLBEntries %d: must be ≥ 1", m.TLBEntries)
	}
	if m.MissStallCycles < 1 {
		return fmt.Errorf("arch.Machine: MissStallCycles %d: must be ≥ 1", m.MissStallCycles)
	}
	if m.L1MissL2HitCycles < 0 {
		return fmt.Errorf("arch.Machine: L1MissL2HitCycles %d: must be ≥ 0", m.L1MissL2HitCycles)
	}
	return nil
}

// String returns a compact one-line description, used by CLI banners and
// sweep tables.
func (m Machine) String() string {
	return fmt.Sprintf("%d×%dMHz I=%s/%d D=%s/%d+%s/%d mem=%s tlb=%d stall=%d/%d",
		m.NCPU, m.ClockMHz,
		SizeString(m.ICacheSize), m.ICacheAssoc,
		SizeString(m.DCacheL1Size), m.DCacheL1Assoc,
		SizeString(m.DCacheL2Size), m.DCacheL2Assoc,
		SizeString(m.MemBytes), m.TLBEntries,
		m.MissStallCycles, m.L1MissL2HitCycles)
}

// SizeString formats a byte count with a K/M suffix when exact.
func SizeString(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dK", n>>10)
	default:
		return fmt.Sprintf("%d", n)
	}
}
