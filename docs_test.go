package repro

import (
	"os"
	"regexp"
	"testing"
)

// cmdRef matches a reference to a command directory, "./cmd/name" or
// "cmd/name", but not a path that merely ends in cmd (perfbench/cmd).
var cmdRef = regexp.MustCompile(`(?:^|[^\w/.-])(?:\./)?cmd/([\w-]+)`)

// TestDocsNameExistingCommands fails when a user-facing document tells the
// reader to run a command that no longer exists. CHANGES.md and ROADMAP.md
// are history and may name removed commands.
func TestDocsNameExistingCommands(t *testing.T) {
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cmdRef.FindAllSubmatch(text, -1) {
			name := string(m[1])
			if fi, err := os.Stat("cmd/" + name); err != nil || !fi.IsDir() {
				t.Errorf("%s references cmd/%s, which does not exist", doc, name)
			}
		}
	}
}
