package core

// tombstone holds the Config fields of deleted mechanisms that bench/
// still assigns.
type tombstone struct {
	// SimWorkers is ignored: every run is serial, and it never was a
	// Hash input. bench/ pin, removed by ROADMAP 13.
	SimWorkers int
}
