package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sort"

	hybridmem "repro"
)

// digestFile holds the SHA-256 of every emulated Result's EncodeResult
// bytes, per workload and canonical spec key. Emulator speed must
// never move emulated numbers, so any difference is a failed
// operation. The emulated specs do not depend on --seed (it only
// orders them), so the digests hold for every seed.
const digestFile = "perfbench/digests.json"

// digests maps workload -> spec key -> hex digest.
type digests map[string]map[string]string

func loadDigests() (digests, error) {
	data, err := os.ReadFile(digestFile)
	if errors.Is(err, fs.ErrNotExist) {
		return digests{}, nil
	}
	if err != nil {
		return nil, err
	}
	d := digests{}
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", digestFile, err)
	}
	return d, nil
}

// emulated is one emulated Result the run produced.
type emulated struct {
	key    string
	digest string
}

// noteResult records an emulated Result for the digest check. An
// unencodable Result is a failed operation.
func (b *bench) noteResult(key string, res hybridmem.Result) {
	data, err := hybridmem.EncodeResult(res)
	if err != nil {
		b.fail("encoding result %s: %v", key, err)
		return
	}
	sum := sha256.Sum256(data)
	b.results = append(b.results, emulated{key, hex.EncodeToString(sum[:])})
}

// settle checks every noted Result against the committed digests, or,
// when recording, replaces the workload's committed digests with them.
func (d digests) settle(b *bench, record bool) error {
	if record {
		got := map[string]string{}
		for _, r := range b.results {
			if prev, ok := got[r.key]; ok && prev != r.digest {
				return fmt.Errorf("not recording: %s emulated two different Results", r.key)
			}
			got[r.key] = r.digest
		}
		d[b.name] = got
		data, err := json.MarshalIndent(d, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(digestFile, append(data, '\n'), 0o644)
	}
	want := d[b.name]
	seen := map[string]bool{}
	for _, r := range b.results {
		seen[r.key] = true
		switch w, ok := want[r.key]; {
		case !ok:
			b.fail("no committed digest for %s", r.key)
		case w != r.digest:
			b.fail("digest mismatch for %s: got %s, committed %s", r.key, r.digest, w)
		}
	}
	var missing []string
	for k := range want {
		if !seen[k] {
			missing = append(missing, k)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		b.broken = true
		fmt.Fprintf(os.Stderr, "perfbench: %d committed digests were not produced, e.g. %s\n", len(missing), missing[0])
	}
	return nil
}
