package spans

import (
	"fmt"
	"time"
)

// PendingWrite is one buffered MSR write awaiting its decision parent.
type PendingWrite struct {
	At     time.Duration
	Socket int
	GHz    float64
}

// LedgerState is the energy ledger's full mutable state. The phase map
// is flattened into first-seen order so the encoding is deterministic.
type LedgerState struct {
	Run      EnergyAttr
	Window   EnergyAttr
	WindowID ID
	WindowIx int
	Decision EnergyAttr
	DecID    ID

	Windows []WindowEnergy

	Phase  string
	Phases []PhaseEnergy
}

// TracerState is a tracer's full mutable state: the span arena, open
// span cursors, pending writes, the power model and the ledger. The
// window grouping is recorded so a restore target built with a
// different New(windowTicks) is rejected.
type TracerState struct {
	Meta        Meta
	WindowTicks int
	Spans       []Span

	Run      ID
	Window   ID
	Tick     ID
	Decision ID
	LastTick ID

	TickCount   int
	WindowCount int

	Pending []PendingWrite
	ByKind  []int

	Finished   bool
	FinishedAt time.Duration

	Model        PowerModel
	ModelPresent bool

	Ledger LedgerState
}

// State captures the tracer; nil for a nil (disabled) tracer.
func (t *Tracer) State() *TracerState {
	if t == nil {
		return nil
	}
	st := &TracerState{
		Meta:         t.meta,
		WindowTicks:  t.windowTicks,
		Spans:        append([]Span(nil), t.spans...),
		Run:          t.run,
		Window:       t.window,
		Tick:         t.tick,
		Decision:     t.decision,
		LastTick:     t.lastTick,
		TickCount:    t.tickCount,
		WindowCount:  t.windowCount,
		ByKind:       append([]int(nil), t.byKind[:]...),
		Finished:     t.finished,
		FinishedAt:   t.finishedAt,
		Model:        t.model,
		ModelPresent: t.modelPresent,
	}
	for _, p := range t.pending {
		st.Pending = append(st.Pending, PendingWrite{At: p.at, Socket: p.socket, GHz: p.ghz})
	}
	l := &t.ledger
	st.Ledger = LedgerState{
		Run:      l.run,
		Window:   l.window,
		WindowID: l.windowID,
		WindowIx: l.windowIx,
		Decision: l.decision,
		DecID:    l.decID,
		Windows:  append([]WindowEnergy(nil), l.windows...),
		Phase:    l.phase,
	}
	for _, name := range l.phaseOrder {
		st.Ledger.Phases = append(st.Ledger.Phases, PhaseEnergy{Name: name, Energy: *l.phaseAttr[name]})
	}
	return st
}

// Restore overwrites a tracer built with the same window grouping.
func (t *Tracer) Restore(st *TracerState) error {
	if t == nil {
		if st != nil {
			return fmt.Errorf("spans: restore state into a nil tracer")
		}
		return nil
	}
	if st == nil {
		return fmt.Errorf("spans: restore nil state into an enabled tracer")
	}
	if st.WindowTicks != t.windowTicks {
		return fmt.Errorf("spans: restore window grouping %d, tracer built with %d", st.WindowTicks, t.windowTicks)
	}
	if len(st.ByKind) != int(numKinds) {
		return fmt.Errorf("spans: restore has %d span kinds, tracer knows %d", len(st.ByKind), numKinds)
	}
	t.meta = st.Meta
	t.spans = append(t.spans[:0], st.Spans...)
	t.run = st.Run
	t.window = st.Window
	t.tick = st.Tick
	t.decision = st.Decision
	t.lastTick = st.LastTick
	t.tickCount = st.TickCount
	t.windowCount = st.WindowCount
	t.pending = t.pending[:0]
	for _, p := range st.Pending {
		t.pending = append(t.pending, pendingWrite{at: p.At, socket: p.Socket, ghz: p.GHz})
	}
	copy(t.byKind[:], st.ByKind)
	t.finished = st.Finished
	t.finishedAt = st.FinishedAt
	t.model = st.Model
	t.modelPresent = st.ModelPresent

	l := &t.ledger
	l.run = st.Ledger.Run
	l.window = st.Ledger.Window
	l.windowID = st.Ledger.WindowID
	l.windowIx = st.Ledger.WindowIx
	l.decision = st.Ledger.Decision
	l.decID = st.Ledger.DecID
	l.windows = append(l.windows[:0], st.Ledger.Windows...)
	l.phase = st.Ledger.Phase
	l.phaseAttr = nil
	l.phaseOrder = nil
	l.phaseCur = nil
	for _, p := range st.Ledger.Phases {
		if l.phaseAttr == nil {
			l.phaseAttr = make(map[string]*EnergyAttr, len(st.Ledger.Phases))
		}
		e := p.Energy
		l.phaseAttr[p.Name] = &e
		l.phaseOrder = append(l.phaseOrder, p.Name)
	}
	return nil
}
