package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"

	"intrawarp/internal/stats"
)

// checker counts ops and fails those whose result is wrong: an error
// from the program (a host Check included), a digest that differs from
// the pin taken at the default seed, or a digest that differs from an
// earlier op with the same key — in an earlier pass, or in this one (a
// cache hit against its miss, a repeated sweep against the cold one).
type checker struct {
	pins      map[string]string
	seen      map[string]string
	log       io.Writer
	attempted int
	failed    int
	pinned    int
}

func newChecker(pins map[string]string, log io.Writer) *checker {
	return &checker{pins: pins, seen: map[string]string{}, log: log}
}

// maxReported bounds the failure lines printed per run.
const maxReported = 10

func (c *checker) check(ops []op) {
	for _, o := range ops {
		c.attempted++
		err := o.err
		if err == nil {
			if want, ok := c.pins[o.key]; ok {
				c.pinned++
				if want != o.digest {
					err = fmt.Errorf("digest %s, pinned %s", o.digest, want)
				}
			}
		}
		if err == nil {
			if prev, ok := c.seen[o.key]; !ok {
				c.seen[o.key] = o.digest
			} else if prev != o.digest {
				err = fmt.Errorf("digest %s, earlier %s", o.digest, prev)
			}
		}
		if err != nil {
			if c.failed < maxReported {
				fmt.Fprintf(c.log, "# FAILED %s: %v\n", o.key, err)
			}
			c.failed++
		}
	}
}

// digestRun hashes the JSON encoding of a run's statistics, which holds
// every exported field (map keys sorted), so any change to a simulated
// statistic changes the digest.
func digestRun(r *stats.Run) (string, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return "", fmt.Errorf("digest stats: %w", err)
	}
	return digestBytes(b), nil
}

// digestBytes hashes a response body.
func digestBytes(b ...[]byte) string {
	h := fnv.New64a()
	for _, p := range b {
		h.Write(p)
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// pinsJSON holds, per workload, the digest of every op at the default
// seed. Named-workload ops do not depend on the seed, so their pins
// apply at every seed; seeded ops (kgen windows, serve keys) carry the
// seed in their key and are pinned only at the default seed.
//
//go:embed pins.json
var pinsJSON []byte

func loadPins() (map[string]map[string]string, error) {
	pins := map[string]map[string]string{}
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return pins, nil
}

// recordPins runs one pass of every workload at the default seed and
// writes its digests to path. Run it only after a change that is meant
// to alter simulated results.
func recordPins(ctx context.Context, path string) error {
	pins := map[string]map[string]string{}
	for _, name := range workloadNames() {
		b, err := workloadByName[name](ctx, defaultSeed)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		p, err := b.pass(ctx, &passEnv{heap: &heapSampler{}})
		b.close()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		chk := newChecker(nil, os.Stderr)
		chk.check(p.ops)
		if chk.failed > 0 {
			return fmt.Errorf("%s: %d of %d ops failed; not pinning", name, chk.failed, chk.attempted)
		}
		pins[name] = chk.seen
	}
	out, err := json.MarshalIndent(pins, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
