package check

import "repro/internal/arch"

// SetVersion fast-forwards the shadow version of the block containing a to
// v, leaving every copy's recorded version as it is.
func (k *Checker) SetVersion(a arch.PAddr, v uint32) {
	pg, bi := k.page(a)
	pg.ver[bi] = v
}

// SetEpoch fast-forwards CPU q's I-cache flush epoch to e, leaving every
// copy's recorded epoch as it is.
func (k *Checker) SetEpoch(q arch.CPUID, e uint32) { k.iEpochNow[q] = e }

// ShadowPages returns how many page frames hold shadow state.
func (k *Checker) ShadowPages() int {
	n := 0
	for _, pg := range k.pages {
		if pg != nil {
			n++
		}
	}
	return n
}
