package scenario

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// goldenDigests pins the simulator's output: the sha256 of a run's
// marshaled Report, a newline, and its marshaled trace events, recorded
// before GreedyLatency's bounded walk replaced scoring every node. A
// refactor of placement, routing or the engine that keeps behaviour must
// keep every digest; a deliberate behaviour change re-records them and
// says why.
var goldenDigests = map[string]string{
	"stress-1":                   "fb0b75e476d7ee3a37a4936921c5d3178a4c47763119d715756613e17e79d54b",
	"stress-2":                   "d9f38c112d2142c9101a4353d9fa88bc5e0dd1f8010ac1caae8c953d42893018",
	"stress-3":                   "12e12468aa12b557d673976fcb460883de90ddbcc49c7c2417c4e69ba8585d8b",
	"cascading-failure.json":     "3f6631922bc1da5d039618de9d45d70f4af2d557f07a1d560021c18b570fe1a0",
	"correlated-edge-churn.json": "c59da502931bdbc4d3cae5e22ea9be9526c9abb453d05227c0a2f2aba9fd5386",
	"diurnal.json":               "8d399c5a1e1e035f9c21f201a76cc498bc9b07035a9b84c1fd985966d2cc427f",
	"flash-crowd.json":           "01d3c8e76878d2e1b9e94d8a95581b4772e2d9310fe1b3c682a810c734d5ed2a",
	"gateway-brownout.json":      "30024b7a45da64c9c6387c60e066ac0be70933bda0e3646b785f066de73fe6ff",
	"regional-partition.json":    "4bc1add1f6a2567c99e6b3dd7dd20ddbe4702a056b8f0740814df19b48013d56",
}

// TestStressGoldenDigest runs the 1,000-node stress scenario for seeds
// 1-3 and every shipped example scenario and compares each run's digest
// with goldenDigests. The digests are amd64 values: Go may fuse a
// multiply and an add into one FMA on other architectures, which changes
// the last bits of a float and so the bytes.
func TestStressGoldenDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are recorded on amd64; %s may fuse multiply-add", runtime.GOARCH)
	}
	cases := map[string]*Scenario{}
	for seed := uint64(1); seed <= 3; seed++ {
		cases[fmt.Sprintf("stress-%d", seed)] = GenerateStress(StressSpec{Nodes: 1000, Seed: seed})
	}
	files, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Parse(b)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		cases[filepath.Base(f)] = s
	}
	if len(cases) != len(goldenDigests) {
		t.Fatalf("%d cases, %d golden digests: a scenario was added or removed", len(cases), len(goldenDigests))
	}
	for name, s := range cases {
		rep, tr, err := s.RunTracedParallel(2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rb, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		eb, err := json.Marshal(tr.Events())
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%x", sha256.Sum256(append(append(rb, '\n'), eb...)))
		if want := goldenDigests[name]; got != want {
			t.Errorf("%s: digest %s, want %s", name, got, want)
		}
	}
}
