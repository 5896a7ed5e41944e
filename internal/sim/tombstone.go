package sim

// SpecStats is what the deleted parallel engine counted; every field
// reads 0, runs being serial. bench/ pin, removed by ROADMAP 13.
type SpecStats struct {
	Phases, SpecSteps, CommittedSteps, TruncatedSteps, Mispredicts int64
}

// SpecStats returns SpecStats{}. bench/ pin, removed by ROADMAP 13.
func (s *Simulator) SpecStats() SpecStats { return SpecStats{} }
