package runflag

import (
	"flag"
	"strconv"
)

// simWorkersNote is what Main prints when -sim-workers was given.
const simWorkersNote = "note: -sim-workers has no effect: runs are serial"

// registerSimWorkers keeps -sim-workers parsing as an integer that sets
// only given. bench/ pin, removed by ROADMAP 13.
func registerSimWorkers(fs *flag.FlagSet, given *bool) {
	fs.Func("sim-workers", "no effect (runs are serial); accepted for old command lines", func(v string) error {
		*given = true
		_, err := strconv.Atoi(v)
		return err
	})
}
