package trace

import (
	"strings"
	"testing"

	"mssr/internal/isa"
)

func ev(cycle uint64, kind Kind, fseq uint64) Event {
	return Event{
		Cycle: cycle, Kind: kind, Seq: fseq, Fseq: fseq,
		PC:    0x1000 + fseq*4,
		Instr: isa.Instruction{Op: isa.ADDI, Rd: 1, Rs1: 1, Imm: 1},
	}
}

func TestKindString(t *testing.T) {
	if KindFetch.String() != "fetch" || KindCommit.String() != "commit" || KindReconverge.String() != "reconverge" {
		t.Error("bad kind names")
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Error("unknown kind should carry its number")
	}
}

func TestWriterEmit(t *testing.T) {
	var sb strings.Builder
	w := &Writer{W: &sb}
	w.Emit(ev(3, KindRename, 7))
	w.Emit(Event{Cycle: 9, Kind: KindRedirect, PC: 0x2000, Note: "mispredict"})
	out := sb.String()
	if !strings.Contains(out, "rename") || !strings.Contains(out, "seq=7") {
		t.Errorf("writer output missing fields:\n%s", out)
	}
	if !strings.Contains(out, "redirect") || !strings.Contains(out, "mispredict") {
		t.Errorf("frontend event missing:\n%s", out)
	}
}

func TestPipelineCollectsStages(t *testing.T) {
	p := NewPipeline(0)
	for _, e := range []Event{
		ev(1, KindFetch, 1), ev(5, KindRename, 1), ev(6, KindIssue, 1),
		ev(7, KindWriteback, 1), ev(9, KindCommit, 1),
		ev(2, KindFetch, 2), ev(6, KindRename, 2), ev(8, KindSquash, 2),
	} {
		p.Emit(e)
	}
	if p.Rows() != 2 {
		t.Fatalf("rows = %d", p.Rows())
	}
	out := p.Render(0)
	for _, want := range []string{"fseq", "squashed", "0x1004", "0x1008"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// The committed instruction's row shows every stage cycle.
	line := lineWith(out, "0x1004")
	for _, cycle := range []string{"1", "5", "6", "7", "9"} {
		if !strings.Contains(line, cycle) {
			t.Errorf("row missing stage cycle %s: %q", cycle, line)
		}
	}
	// The squashed instruction never commits: dash in the commit column.
	if line := lineWith(out, "0x1008"); !strings.Contains(line, "-") {
		t.Errorf("squashed row should have missing stages: %q", line)
	}
}

func lineWith(s, sub string) string {
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, sub) {
			return l
		}
	}
	return ""
}

func TestPipelineReuseFlag(t *testing.T) {
	p := NewPipeline(0)
	p.Emit(ev(1, KindFetch, 1))
	p.Emit(ev(5, KindReuse, 1))
	if !strings.Contains(p.Render(0), "reused") {
		t.Error("reuse flag missing")
	}
}

func TestPipelineLimit(t *testing.T) {
	p := NewPipeline(4)
	for i := uint64(1); i <= 1000; i++ {
		p.Emit(ev(i, KindFetch, i))
	}
	// Retention is a multiple of the limit (speculation runs far ahead of
	// commit), but must stay bounded.
	if p.Rows() > 32*4 {
		t.Errorf("rows = %d, should be bounded", p.Rows())
	}
	out := p.Render(4)
	if strings.Contains(out, " 0x1004 ") {
		t.Error("old rows should have been evicted from the render window")
	}
	if !strings.Contains(out, "fseq") {
		t.Error("header missing")
	}
	if got := strings.Count(out, "\n"); got > 6 {
		t.Errorf("render window too large: %d lines", got)
	}
}

func TestPipelineNotesInterleaved(t *testing.T) {
	p := NewPipeline(0)
	p.Emit(ev(1, KindFetch, 1))
	p.Emit(Event{Cycle: 2, Kind: KindRedirect, Note: "mispredict -> 0x2000"})
	p.Emit(ev(5, KindFetch, 2))
	out := p.Render(0)
	ri := strings.Index(out, "mispredict")
	a := strings.Index(out, "0x1004")
	b := strings.Index(out, "0x1008")
	if !(a < ri && ri < b) {
		t.Errorf("redirect note not interleaved between rows:\n%s", out)
	}
}

func TestPipelineRenderSubset(t *testing.T) {
	p := NewPipeline(0)
	for i := uint64(1); i <= 10; i++ {
		p.Emit(ev(i, KindFetch, i))
	}
	out := p.Render(3)
	if strings.Contains(out, "0x1004\n") {
		t.Error("subset render should omit early rows")
	}
	if !strings.Contains(out, "0x1028") {
		t.Error("subset render should include the last row")
	}
}

func TestMultiFansOut(t *testing.T) {
	a, b := NewPipeline(0), NewPipeline(0)
	m := Multi{a, b}
	m.Emit(ev(1, KindFetch, 1))
	if a.Rows() != 1 || b.Rows() != 1 {
		t.Error("multi did not fan out")
	}
}

func TestParseLineRoundTrip(t *testing.T) {
	var sb strings.Builder
	w := &Writer{W: &sb}
	events := []Event{
		ev(3, KindRename, 7),
		{Cycle: 12, Kind: KindRedirect, PC: 0x2040, Note: "target=0x1000"},
		ev(900, KindCommit, 123),
		{Cycle: 901, Kind: KindReconverge, PC: 0x1010, Note: "stream 2"},
	}
	for _, e := range events {
		w.Emit(e)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != len(events) {
		t.Fatalf("emitted %d lines for %d events", len(lines), len(events))
	}
	for i, line := range lines {
		got, err := ParseLine(line)
		if err != nil {
			t.Fatalf("line %d %q: %v", i, line, err)
		}
		want := events[i]
		if got.Cycle != want.Cycle || got.Kind != want.Kind || got.Seq != want.Seq || got.PC != want.PC {
			t.Errorf("line %d round-trip mismatch:\nwant %+v\ngot  %+v", i, want, got)
		}
		// Frontend-only events carry the note verbatim; seq lines append
		// the rendered instruction before it, so containment is the
		// strongest guarantee ParseLine makes for Note.
		if want.Note != "" && !strings.Contains(got.Note, want.Note) {
			t.Errorf("line %d note %q lost: got %q", i, want.Note, got.Note)
		}
	}
}

func TestParseLineRejectsGarbage(t *testing.T) {
	for _, line := range []string{
		"",
		"notanumber fetch pc=0x1",
		"3 warp pc=0x1",
		"3 fetch seq=9",
		"3 fetch seq=x pc=0x1",
		"3 fetch pc=zzz",
	} {
		if _, err := ParseLine(line); err == nil {
			t.Errorf("ParseLine(%q) accepted garbage", line)
		}
	}
}

// FuzzParseLine drives arbitrary text into ParseLine. No input panics,
// and a line it accepts keeps its cycle, kind, seq and pc through
// Writer.Emit and a second parse.
func FuzzParseLine(f *testing.F) {
	f.Fuzz(func(t *testing.T, line string) {
		e, err := ParseLine(line)
		if err != nil {
			return
		}
		var sb strings.Builder
		(&Writer{W: &sb}).Emit(e)
		got, err := ParseLine(sb.String())
		if err != nil {
			t.Fatalf("ParseLine(%q) = %+v, whose emitted line %q does not parse: %v", line, e, sb.String(), err)
		}
		if got.Cycle != e.Cycle || got.Kind != e.Kind || got.Seq != e.Seq || got.PC != e.PC {
			t.Fatalf("ParseLine(%q) = %+v, but its emitted line %q parses to %+v", line, e, sb.String(), got)
		}
	})
}
