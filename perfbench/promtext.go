package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// scrape is one read of rayschedd's /metrics page: sample value by series
// (metric name plus its label set, exactly as rendered).
type scrape map[string]float64

// readMetrics fetches and parses the daemon's Prometheus text page.
func readMetrics(c *http.Client, base string) (scrape, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("read /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("read /metrics: status %d", resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

func parseMetrics(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("parse /metrics: bad line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("parse /metrics: %w", err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta returns after-before for every series (a series absent before
// counts from 0).
func (after scrape) delta(before scrape) scrape {
	d := scrape{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// sum adds every series of metric name whose labels contain all of the
// given label fragments (for example `endpoint="/v1/estimate"`).
func (s scrape) sum(name string, fragments ...string) float64 {
	var total float64
	for k, v := range s {
		series, labels, _ := strings.Cut(k, "{")
		if series != name {
			continue
		}
		match := true
		for _, f := range fragments {
			if !strings.Contains(labels, f) {
				match = false
				break
			}
		}
		if match {
			total += v
		}
	}
	return total
}

// histQuantile returns the upper bound of the first bucket of histogram
// name (summed over every label set) that holds quantile q of its
// observations: an upper estimate, resolved to the bucket width.
func (s scrape) histQuantile(name string, q float64) float64 {
	byLE := map[float64]float64{}
	for k, v := range s {
		series, labels, _ := strings.Cut(k, "{")
		if series != name+"_bucket" {
			continue
		}
		_, rest, ok := strings.Cut(labels, `le="`)
		if !ok {
			continue
		}
		leText, _, _ := strings.Cut(rest, `"`)
		le := math.Inf(1)
		if leText != "+Inf" {
			var err error
			if le, err = strconv.ParseFloat(leText, 64); err != nil {
				continue
			}
		}
		byLE[le] += v
	}
	les := make([]float64, 0, len(byLE))
	for le := range byLE {
		les = append(les, le)
	}
	sort.Float64s(les)
	if len(les) == 0 || byLE[les[len(les)-1]] == 0 {
		return 0
	}
	total := byLE[les[len(les)-1]]
	for i, le := range les {
		if byLE[le] >= q*total {
			if math.IsInf(le, 1) && i > 0 {
				return les[i-1]
			}
			return le
		}
	}
	return les[len(les)-1]
}
