package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func ptr(s string) *string { return &s }

// checkGolden asserts that run prints exactly testdata/file. The goldens
// were recorded from the rmrall that predates -only; a deliberate table
// change re-records them with `go run ./cmd/rmrall [-quick] > testdata/...`.
func checkGolden(t *testing.T, file string, cfg config) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(&out, cfg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("output drifted from %s.\n--- got ---\n%s\n--- want ---\n%s", file, out.Bytes(), want)
	}
}

func TestRun(t *testing.T) { checkGolden(t, "rmrall.golden", config{}) }

func TestRunQuick(t *testing.T) { checkGolden(t, "rmrall-quick.golden", config{quick: true}) }

// TestOnly runs each -only ID at a small grid and checks its table's
// landmarks.
func TestOnly(t *testing.T) {
	for _, tc := range []struct {
		only      string
		ns, seeds *string
		want      []string
	}{
		{"E1", ptr("4,8"), nil, []string{"=== E1:", "af-1", "af-n", "writer entry RMR"}},
		{"E2", ptr("4,9"), nil, []string{"=== E2:", "af-1", "flag-array", "r (iters)", "lemma1 viol"}},
		{"E3", ptr("4,8"), nil, []string{"=== E3a:", "=== E3b:"}},
		{"E4", nil, ptr("1"), []string{"=== E4:", "af-log", "centralized", "faa-phasefair", "mutex-rw"}},
		{"E5", ptr("4,8"), nil, []string{"=== E5:", "WB"}},
		{"E6", nil, ptr("1"), []string{"=== E6:"}},
		{"E8", ptr("4,8"), nil, []string{"=== E8:"}},
		{"E9", ptr("4"), nil, []string{"=== E9:"}},
		{"E10", nil, nil, []string{"=== E10:"}},
		{"E11", ptr("4,8"), ptr("1,2"), []string{"=== E11:"}},
		{"E12", ptr("4,8"), nil, []string{"=== E12:"}},
	} {
		t.Run(tc.only, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(&out, config{only: tc.only, ns: tc.ns, seeds: tc.seeds, quick: true}); err != nil {
				t.Fatal(err)
			}
			for _, want := range tc.want {
				if !strings.Contains(out.String(), want) {
					t.Errorf("output missing %q:\n%s", want, out.String())
				}
			}
			headings := 0
			for _, want := range tc.want {
				if strings.HasPrefix(want, "=== ") {
					headings++
				}
			}
			if n := strings.Count(out.String(), "=== "); n != headings {
				t.Errorf("printed %d sections, want %d:\n%s", n, headings, out.String())
			}
		})
	}
}

func TestBadInputs(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  config
	}{
		{"empty n", config{only: "E2", ns: ptr("")}},
		{"zero n", config{only: "E1", ns: ptr("0")}},
		{"bad n", config{only: "E1", ns: ptr("x")}},
		{"bad seeds", config{only: "E4", seeds: ptr("zzz")}},
		{"empty seeds", config{only: "E6", seeds: ptr("")}},
		{"unknown ID", config{only: "E1,E7"}},
		{"empty ID", config{only: "E1,"}},
		{"n feeds nothing", config{only: "E4", ns: ptr("32")}},
		{"seeds feed nothing", config{only: "E1,E10", seeds: ptr("1")}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(&out, tc.cfg); err == nil {
				t.Errorf("accepted; printed:\n%s", out.String())
			} else if out.Len() != 0 {
				t.Errorf("printed before rejecting: %s", out.String())
			}
		})
	}
}
