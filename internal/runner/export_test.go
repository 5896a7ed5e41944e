package runner

// RunLabel is the timing table's name for a run.
var RunLabel = runLabel
