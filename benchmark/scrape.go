package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// series is one scrape of a Prometheus text exposition: full series name,
// labels included, to value.
type series map[string]float64

// parseSeries reads the sample lines of a text exposition.
func parseSeries(text []byte) (series, error) {
	out := make(series)
	for _, line := range strings.Split(string(text), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line without a value: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// add folds another scrape in, summing series by name: counters and
// histogram sums of the shards add up to the server's.
func (s series) add(o series) {
	for k, v := range o {
		s[k] += v
	}
}

// scrape is the server's published counters at one instant: the front door's
// own registry and the sum of its shards' registries.
type scrape struct {
	front  series
	shards series
	// bytes and took describe the front-door exposition itself.
	bytes int
	took  time.Duration
}

func (g *loadgen) scrape() (scrape, error) {
	body, took, err := g.get("/metrics")
	if err != nil {
		return scrape{}, err
	}
	front, err := parseSeries(body)
	if err != nil {
		return scrape{}, err
	}
	sc := scrape{front: front, shards: make(series), bytes: len(body), took: took}
	for k := 0; k < shards; k++ {
		body, _, err := g.get(fmt.Sprintf("/v1/shards/%d/metrics", k))
		if err != nil {
			return scrape{}, err
		}
		sh, err := parseSeries(body)
		if err != nil {
			return scrape{}, err
		}
		sc.shards.add(sh)
	}
	return sc, nil
}

// histogramMax returns the upper bound of the highest occupied bucket of a
// cumulative histogram: the tightest "no observation above" the exposition
// supports.
func histogramMax(s series, name string) float64 {
	prefix := name + `_bucket{le="`
	total := s[name+"_count"]
	best := 0.0
	found := false
	for k, v := range s {
		if !strings.HasPrefix(k, prefix) || v < total {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(k[len(prefix):], `"}`), 64)
		if err != nil { // +Inf parses; anything else is not a bucket bound
			continue
		}
		if !found || le < best {
			best, found = le, true
		}
	}
	return best
}
