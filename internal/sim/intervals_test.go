package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"mssr/internal/obs"
	"mssr/internal/stats"
)

// sampledSpec is tinySpec with interval telemetry attached at a period
// short enough that even the tiny workloads produce several intervals.
func sampledSpec() Spec {
	s := tinySpec()
	s.SampleInterval = 64
	return s
}

func TestSpecSamplingKeys(t *testing.T) {
	plain := tinySpec()
	sampled := sampledSpec()
	if !strings.Contains(sampled.CanonicalKey(), "+iv64") {
		t.Errorf("sampled canonical key lacks interval tag: %q", sampled.CanonicalKey())
	}
	if plain.CanonicalKey() == sampled.CanonicalKey() {
		t.Error("sampling does not change the canonical key; cached results would be unsound")
	}
	if plain.poolKey() == sampled.poolKey() {
		t.Error("sampling does not change the pool key; sampled jobs would draw unsampled cores")
	}
	windowed := sampledSpec()
	windowed.SampleWindow = 128
	if !strings.Contains(windowed.CanonicalKey(), "+iv64w128") {
		t.Errorf("windowed canonical key lacks window tag: %q", windowed.CanonicalKey())
	}
	bad := tinySpec()
	bad.SampleWindow = 128 // window without interval
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted SampleWindow without SampleInterval")
	}
}

func TestResultCarriesIntervals(t *testing.T) {
	res, err := Run(context.Background(), sampledSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Intervals) == 0 {
		t.Fatal("sampled run produced no intervals")
	}
	last := res.Intervals[len(res.Intervals)-1]
	if last.End != res.Stats.Cycles {
		t.Errorf("interval stream ends at cycle %d, run ended at %d (missing Flush?)", last.End, res.Stats.Cycles)
	}
	if res.IntervalsDropped == 0 {
		var sum [len(stats.IntervalCounters)]uint64
		for _, iv := range res.Intervals {
			for i, v := range iv.Counters {
				sum[i] += v
			}
		}
		for i, c := range stats.IntervalCounters {
			if sum[i] != *c.Field(res.Stats) {
				t.Errorf("interval deltas sum to %d %s, the run's total is %d", sum[i], c.Name, *c.Field(res.Stats))
			}
		}
	}
	// Unsampled runs must stay interval-free.
	plain, err := Run(context.Background(), tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if plain.Intervals != nil {
		t.Errorf("unsampled run carries %d intervals", len(plain.Intervals))
	}
}

// TestPooledIntervalDeterminism extends the pooling guard to telemetry:
// the interval stream of a sweep served by pooled cores must be
// byte-identical to the same sweep on fresh cores.
func TestPooledIntervalDeterminism(t *testing.T) {
	sweep := func() []Spec {
		var specs []Spec
		for i := 0; i < 6; i++ {
			s := sampledSpec()
			if i%2 == 1 {
				s.Workload = "linear-mispred"
			}
			specs = append(specs, s)
		}
		return specs
	}
	render := func(results []Result) []byte {
		var buf bytes.Buffer
		for _, r := range results {
			if r.Err != nil {
				t.Fatalf("%s: %v", r.Key, r.Err)
			}
			if len(r.Intervals) == 0 {
				t.Fatalf("%s: sampled run carries no intervals", r.Key)
			}
			b, err := json.Marshal(r.Intervals)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(b)
		}
		return buf.Bytes()
	}
	ctx := context.Background()
	fresh := freshRun(t, sweep())
	pooled, err := (&Runner{Jobs: 1}).Run(ctx, sweep())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(render(fresh), render(pooled)) {
		t.Error("pooled intervals diverge from fresh cores")
	}
}

func TestIntervalStreamFormats(t *testing.T) {
	var nd, csv bytes.Buffer
	ndStream := NewIntervalStream(&nd)
	csvStream := NewIntervalCSVStream(&csv)
	r := &Runner{Jobs: 1, Observer: Observers(ndStream, csvStream)}
	if _, err := r.Run(context.Background(), []Spec{sampledSpec()}); err != nil {
		t.Fatal(err)
	}
	if err := ndStream.Err(); err != nil {
		t.Fatal(err)
	}
	if err := csvStream.Err(); err != nil {
		t.Fatal(err)
	}

	ndLines := strings.Split(strings.TrimSpace(nd.String()), "\n")
	if len(ndLines) == 0 || ndLines[0] == "" {
		t.Fatal("NDJSON stream is empty")
	}
	spec := sampledSpec()
	wantKey := spec.Key()
	for i, line := range ndLines {
		// Two decodes: embedding obs.Interval would promote its
		// UnmarshalJSON and drop the key.
		var rec struct {
			Key string `json:"key"`
		}
		var iv obs.Interval
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("NDJSON line %d does not parse: %v", i, err)
		}
		if err := json.Unmarshal([]byte(line), &iv); err != nil {
			t.Fatalf("NDJSON line %d does not parse as an interval: %v", i, err)
		}
		if !strings.HasPrefix(line, `{"key":`) || rec.Key != wantKey {
			t.Errorf("NDJSON line %d does not lead with key %q: %s", i, wantKey, line)
		}
		if iv.Index != i {
			t.Errorf("NDJSON line %d has interval index %d", i, iv.Index)
		}
	}

	csvLines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if csvLines[0] != "key,"+obs.CSVHeader() {
		t.Errorf("CSV header wrong: %q", csvLines[0])
	}
	if len(csvLines) != len(ndLines)+1 {
		t.Errorf("CSV has %d rows for %d intervals", len(csvLines)-1, len(ndLines))
	}
	for i, line := range csvLines[1:] {
		if cols := strings.Split(line, ","); len(cols) != len(strings.Split(csvLines[0], ",")) {
			t.Errorf("CSV row %d has %d columns, header has %d", i, len(cols), len(strings.Split(csvLines[0], ",")))
		}
		if !strings.HasPrefix(line, wantKey+",") {
			t.Errorf("CSV row %d lacks key prefix: %q", i, line)
		}
	}
}
