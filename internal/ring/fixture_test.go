package ring

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the placement known answers in testdata/ (a break: every stored chunk, recipe and stub file moves to another shard)")

// TestPlacementKnownAnswer pins placement: which member owns each of
// 1 000 seeded fingerprints (Owner) and 200 file names (OwnerKey), on
// rings of 4 and 5 members named as the benchmark's deployment names
// its shards. Every client of a cluster must agree on it, and a stored
// chunk is found only on the shard this function names, so any change
// to the point hash, the virtual-node count or the search shows here.
func TestPlacementKnownAnswer(t *testing.T) {
	var got strings.Builder
	fps := randomFPs(1000, 2016)
	members := []string{"127.0.0.1:21500", "127.0.0.1:21501", "127.0.0.1:21502", "127.0.0.1:21503", "127.0.0.1:21504"}
	for _, n := range []int{4, 5} {
		r, err := New(members[:n])
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "Owner over %d members, 50 fingerprints a line:", n)
		for i, fp := range fps {
			fmt.Fprint(&got, map[bool]string{true: "\n"}[i%50 == 0], r.Owner(fp))
		}
		fmt.Fprintf(&got, "\nOwnerKey over %d members, 50 names a line:", n)
		for i := 0; i < 200; i++ {
			fmt.Fprint(&got, map[bool]string{true: "\n"}[i%50 == 0], r.OwnerKey([]byte(fmt.Sprintf("/backup/host-%d/file-%d", i%7, i))))
		}
		got.WriteString("\n")
	}
	path := filepath.Join("testdata", "placement.txt")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if want, err := os.ReadFile(path); err != nil || got.String() != string(want) {
		t.Fatalf("placement differs from the committed known answers in %s (%v)", path, err)
	}
}
