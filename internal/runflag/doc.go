package runflag

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// DocCommand is one documented `go run ./cmd/<bin>` invocation: where it
// is (file:line) and its arguments, which end at a shell operator, a
// comment or the end of an inline code span.
type DocCommand struct{ Where, Args string }

// docs are the documents, relative to the repository root, that describe
// running the binaries.
var docs = []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"}

// DocCommands returns every invocation of bin in the documents under root
// that describe running it, for the binary's tests to parse.
func DocCommands(root, bin string) ([]DocCommand, error) {
	re := regexp.MustCompile(`go run \./cmd/` + bin + "\\b([^`;|&>#]*)")
	var out []DocCommand
	for _, doc := range docs {
		b, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			return nil, err
		}
		for i, line := range strings.Split(string(b), "\n") {
			// A stderr redirect's descriptor is not an argument.
			for _, m := range re.FindAllStringSubmatch(strings.ReplaceAll(line, " 2>", " >"), -1) {
				out = append(out, DocCommand{fmt.Sprintf("%s:%d", doc, i+1), m[1]})
			}
		}
	}
	return out, nil
}
