package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// goldenJSON holds the simulated fingerprint recorded for each workload
// and seed: the exact engine event count and the digest of every
// simulated output a round produces. A change meant only to speed up the
// simulator must reproduce these exactly. Regenerate an entry with
// --record perfbench/golden.json after a deliberate model change.
//
//go:embed golden.json
var goldenJSON []byte

// fingerprint is one round's simulated identity.
type fingerprint struct {
	Events uint64 `json:"events"`
	Digest string `json:"digest"`
}

func (want fingerprint) compare(got fingerprint) error {
	if got != want {
		return fmt.Errorf("simulated %d events (digest %.16s), recorded %d (%.16s)",
			got.Events, got.Digest, want.Events, want.Digest)
	}
	return nil
}

// goldenFile maps workload name -> seed -> fingerprint.
type goldenFile map[string]map[string]fingerprint

func loadGolden() (goldenFile, error) { return parseGolden(goldenJSON) }

func parseGolden(data []byte) (goldenFile, error) {
	g := goldenFile{}
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("parsing golden.json: %w", err)
	}
	return g, nil
}

func (g goldenFile) lookup(workload string, seed uint64) (fingerprint, bool) {
	fp, ok := g[workload][strconv.FormatUint(seed, 10)]
	return fp, ok
}

// recordGolden merges one fingerprint into the golden file at path.
func recordGolden(path, workload string, seed uint64, fp fingerprint) error {
	g := goldenFile{}
	if data, err := os.ReadFile(path); err == nil {
		if g, err = parseGolden(data); err != nil {
			return err
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	if g[workload] == nil {
		g[workload] = map[string]fingerprint{}
	}
	g[workload][strconv.FormatUint(seed, 10)] = fp
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
