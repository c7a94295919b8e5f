package gpu

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"paella/internal/sim"
)

// segment is one contiguous residence of a group of blocks on an SM.
type segment struct {
	SM       int
	Kernel   string
	Job      string
	KernelID uint32
	Blocks   int
	Start    sim.Time
	End      sim.Time
}

// Trace records per-SM execution history, used to verify scheduling
// behaviour (Figure 1) and to render timelines in cmd/paella-trace.
type Trace struct {
	segs []segment
}

// NewTrace returns an empty trace recorder.
func NewTrace() *Trace { return &Trace{} }

func (t *Trace) add(s segment) { t.segs = append(t.segs, s) }

// Len returns the number of recorded segments.
func (t *Trace) Len() int { return len(t.segs) }

// Segment is the exported view of a trace entry.
type Segment struct {
	SM       int
	Kernel   string
	Job      string
	KernelID uint32
	Blocks   int
	Start    sim.Time
	End      sim.Time
}

// Segments returns all recorded segments ordered by (start, SM).
func (t *Trace) Segments() []Segment {
	out := make([]Segment, len(t.segs))
	for i, s := range t.segs {
		out[i] = Segment(s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].SM < out[j].SM
	})
	return out
}

// Makespan returns the end time of the last segment (zero for an empty
// trace).
func (t *Trace) Makespan() sim.Time {
	var end sim.Time
	for _, s := range t.segs {
		if s.End > end {
			end = s.End
		}
	}
	return end
}

// WriteJSON emits the trace as a JSON array of segments (ns timestamps),
// for external tooling.
func (t *Trace) WriteJSON(w io.Writer) error {
	type jsonSeg struct {
		SM       int    `json:"sm"`
		Kernel   string `json:"kernel"`
		Job      string `json:"job"`
		KernelID uint32 `json:"kernel_id"`
		Blocks   int    `json:"blocks"`
		StartNs  int64  `json:"start_ns"`
		EndNs    int64  `json:"end_ns"`
	}
	segs := t.Segments()
	out := make([]jsonSeg, len(segs))
	for i, s := range segs {
		out[i] = jsonSeg{
			SM: s.SM, Kernel: s.Kernel, Job: s.Job, KernelID: s.KernelID,
			Blocks: s.Blocks, StartNs: int64(s.Start), EndNs: int64(s.End),
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Render draws an ASCII timeline, one row per SM, with one column per
// quantum of the given width. Jobs are labelled by the first rune of their
// tag. It is the textual analogue of Figure 1.
func (t *Trace) Render(numSMs int, quantum sim.Time) string {
	if quantum <= 0 || t.Len() == 0 {
		return ""
	}
	span := t.Makespan()
	cols := int((span + quantum - 1) / quantum)
	rows := make([][]rune, numSMs)
	for i := range rows {
		rows[i] = make([]rune, cols)
		for j := range rows[i] {
			rows[i][j] = '.'
		}
	}
	for _, s := range t.segs {
		if s.SM >= numSMs {
			continue
		}
		label := '#'
		if s.Job != "" {
			label = []rune(s.Job)[0]
		}
		for c := int(s.Start / quantum); c < cols && sim.Time(c)*quantum < s.End; c++ {
			rows[s.SM][c] = label
		}
	}
	var b strings.Builder
	for i, row := range rows {
		fmt.Fprintf(&b, "SM%-2d |%s|\n", i, string(row))
	}
	return b.String()
}
