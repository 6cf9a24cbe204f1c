package fleet

import (
	"fmt"
	"testing"
)

func workers(n int) []string {
	ws := make([]string, n)
	for i := range ws {
		ws[i] = fmt.Sprintf("http://10.0.0.%d:8371", i+1)
	}
	return ws
}

func keys(n int) []string {
	ks := make([]string, n)
	for i := range ks {
		ks[i] = fmt.Sprintf("wl%d@s1/rgid-4x%d", i%7, 16<<uint(i%5))
	}
	return ks
}

// TestPickDeterministic pins that placement ignores candidate order —
// two coordinators with differently-ordered worker lists agree.
func TestPickDeterministic(t *testing.T) {
	ws := workers(5)
	rev := make([]string, len(ws))
	for i, w := range ws {
		rev[len(ws)-1-i] = w
	}
	for _, k := range keys(200) {
		if a, b := pick(ws, k), pick(rev, k); a != b {
			t.Fatalf("pick(%q) order-dependent: %q vs %q", k, a, b)
		}
	}
	if pick(nil, "anything") != "" {
		t.Error("pick on an empty ring should return \"\"")
	}
}

// TestPickMinimalDisruption pins the rendezvous property the failure
// path relies on: removing one worker re-homes only that worker's keys.
func TestPickMinimalDisruption(t *testing.T) {
	ws := workers(5)
	placed := make(map[string]string)
	for _, k := range keys(500) {
		placed[k] = pick(ws, k)
	}
	dead := ws[2]
	survivors := make([]string, 0, len(ws)-1)
	for _, w := range ws {
		if w != dead {
			survivors = append(survivors, w)
		}
	}
	for k, home := range placed {
		got := pick(survivors, k)
		if home == dead {
			if got == dead {
				t.Fatalf("key %q still placed on removed worker", k)
			}
			continue
		}
		if got != home {
			t.Fatalf("key %q moved from %q to %q although its worker survived", k, home, got)
		}
	}
}

// TestPickSpreads sanity-checks the distribution: with 500 keys over 5
// workers, no worker is starved or hoards a majority.
func TestPickSpreads(t *testing.T) {
	ws := workers(5)
	counts := make(map[string]int)
	for _, k := range keys(500) {
		counts[pick(ws, k)]++
	}
	for _, w := range ws {
		if counts[w] == 0 {
			t.Errorf("worker %s received no keys", w)
		}
		if counts[w] > 300 {
			t.Errorf("worker %s hoards %d/500 keys", w, counts[w])
		}
	}
}

// TestInjectLabel pins the exposition relabeller on both sample shapes.
func TestInjectLabel(t *testing.T) {
	cases := [][2]string{
		{"msrd_queue_depth 3", `msrd_queue_depth{worker="a:1"} 3`},
		{`msrd_request_duration_seconds{route="submit"} 0.5`, `msrd_request_duration_seconds{worker="a:1",route="submit"} 0.5`},
	}
	for _, c := range cases {
		if got := injectLabel(c[0], "a:1"); got != c[1] {
			t.Errorf("injectLabel(%q) = %q, want %q", c[0], got, c[1])
		}
	}
}

// TestPickSpreadsSuffixKeys: keys that differ only at their end, as a
// geometry sweep's misses do, spread over two loopback workers. For each
// of 200 port pairs, no worker may take more than 48 of the 64 keys
// nested-mispred@s0/rgid-1xE (E = 1..64).
func TestPickSpreadsSuffixKeys(t *testing.T) {
	worst, oneSided := 0, 0
	for i := 0; i < 200; i++ {
		ws := []string{fmt.Sprintf("127.0.0.1:%d", 40000+2*i), fmt.Sprintf("127.0.0.1:%d", 40001+2*i)}
		n := 0
		for e := 1; e <= 64; e++ {
			if pick(ws, fmt.Sprintf("nested-mispred@s0/rgid-1x%d", e)) == ws[0] {
				n++
			}
		}
		worst = max(worst, n, 64-n)
		if n == 0 || n == 64 {
			oneSided++
		}
	}
	if worst > 48 {
		t.Errorf("a worker takes %d of 64 suffix-only keys; %d of 200 pairs put all 64 on one worker", worst, oneSided)
	}
}
