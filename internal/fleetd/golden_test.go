package fleetd

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"
)

// checkGolden pins data to the sha256 digest committed under name in
// testdata/golden.txt ("name hex" lines). The determinism tests compare
// runs of one binary with each other; these digests pin the same outputs
// to committed bytes, so a refactor that moves simulation code around is
// shown to leave its output unchanged. The digests were computed on
// amd64; a platform whose floating-point code generation differs (fused
// multiply-add on arm64, for one) may legitimately disagree.
//
// On a mismatch the fresh digest is printed. A deliberate model change
// replaces the line by hand and says in its change note why the output
// moved.
func checkGolden(t *testing.T, name string, data []byte) {
	t.Helper()
	sum := sha256.Sum256(data)
	got := hex.EncodeToString(sum[:])
	f, err := os.Open("testdata/golden.txt")
	if err != nil {
		t.Fatalf("golden %s: %v (fresh digest %s)", name, err, got)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, want, ok := strings.Cut(sc.Text(), " "); ok && k == name {
			if got != want {
				t.Errorf("golden %s: output digest %s, committed %s", name, got, want)
			}
			return
		}
	}
	t.Errorf("golden %s: no committed digest (fresh digest %s)", name, got)
}
