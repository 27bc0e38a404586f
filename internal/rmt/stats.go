package rmt

import "activermt/internal/telemetry"

// ExecStats is a counter sink for the packet hot path. The device and the
// installed actions count into an ExecStats instead of touching the device's
// counter fields directly; the sink's owner flushes it into those fields (and
// the telemetry mirror) once the packet has finished executing.
//
// Device.Exec and Runtime.ExecuteProgram flush after every packet, so code
// that reads Device.PacketsIn, Stage.Executed, or RegisterArray.Reads between
// packets observes exactly the values per-instruction counting would produce.
type ExecStats struct {
	PacketsIn, PacketsDropped, Recirculations uint64

	// Per-physical-stage counters, indexed by stage.
	StageExecuted []uint64
	RegReads      []uint64
	RegWrites     []uint64
	RegFaults     []uint64

	// Lat accumulates per-packet pipeline latency (nanoseconds); FlushInto
	// merges it into the device's telemetry histogram. Plain single-writer
	// fields, exactly like the counters above.
	Lat telemetry.HistLocal
}

// NewExecStats returns a sink sized for a pipeline of numStages stages.
func NewExecStats(numStages int) *ExecStats {
	s := &ExecStats{}
	s.ensure(numStages)
	return s
}

func (s *ExecStats) ensure(n int) {
	if len(s.StageExecuted) < n {
		s.StageExecuted = make([]uint64, n)
		s.RegReads = make([]uint64, n)
		s.RegWrites = make([]uint64, n)
		s.RegFaults = make([]uint64, n)
	}
}

// FlushInto drains the sink into the device's counter fields (device totals,
// per-stage Executed, register-array access counters), mirroring into the
// device's telemetry metrics when attached, and resets it. The caller must be
// the goroutine that owns the device's counters. The system path flushes
// after every capsule, which touched a handful of stages: untouched ones are
// skipped and only what was drained is zeroed.
func (s *ExecStats) FlushInto(d *Device) {
	s.flushTel(d)
	d.PacketsIn += s.PacketsIn
	d.PacketsDropped += s.PacketsDropped
	d.Recirculations += s.Recirculations
	s.PacketsIn, s.PacketsDropped, s.Recirculations = 0, 0, 0
	n := min(len(s.StageExecuted), len(d.stages))
	ex, rd, wr, ft := s.StageExecuted[:n], s.RegReads[:n], s.RegWrites[:n], s.RegFaults[:n]
	for i, e := range ex {
		r, w, f := rd[i], wr[i], ft[i]
		if e|r|w|f == 0 {
			continue
		}
		st := d.stages[i]
		st.Executed += e
		ex[i] = 0
		if r|w|f != 0 {
			st.Registers.Reads += r
			st.Registers.Writes += w
			st.Registers.Faults += f
			rd[i], wr[i], ft[i] = 0, 0, 0
		}
	}
	if s.Lat.Count != 0 {
		s.Lat.Reset()
	}
}

// flushTel mirrors the counters into the device's telemetry metrics (when
// attached) and drains the latency accumulator; the plain counters are left
// for FlushInto to move into the device fields. Zero deltas are skipped so a
// per-packet flush costs a handful of atomic adds.
func (s *ExecStats) flushTel(d *Device) {
	t := d.tel
	if t == nil {
		return
	}
	if s.PacketsIn != 0 {
		t.PacketsIn.Add(s.PacketsIn)
	}
	if s.PacketsDropped != 0 {
		t.PacketsDropped.Add(s.PacketsDropped)
	}
	if s.Recirculations != 0 {
		t.Recirculations.Add(s.Recirculations)
	}
	for i := range s.StageExecuted {
		if i >= len(t.StageExecuted) {
			break
		}
		if v := s.StageExecuted[i]; v != 0 {
			t.StageExecuted[i].Add(v)
		}
		if v := s.RegReads[i]; v != 0 {
			t.RegReads[i].Add(v)
		}
		if v := s.RegWrites[i]; v != 0 {
			t.RegWrites[i].Add(v)
		}
		if v := s.RegFaults[i]; v != 0 {
			t.RegFaults[i].Add(v)
		}
	}
	s.Lat.FlushInto(t.Latency)
}
