package chaos

import (
	"testing"
	"time"

	"activermt/internal/netsim"
)

// benchmarkPortSend drives the netsim send hot path; prep arms (and possibly
// disarms) injectors on the link before the timer starts.
func benchmarkPortSend(b *testing.B, prep func(sys *System, link *netsim.Port)) {
	eng := netsim.NewEngine()
	s1, s2 := &sink{}, &sink{}
	pa, _ := netsim.Connect(eng, s1, 0, s2, 0, time.Microsecond, 0)
	if prep != nil {
		prep(&System{Eng: eng}, pa)
	}
	frame := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pa.Send(frame)
		if i&1023 == 1023 { // drain periodically so the event heap stays small
			eng.Run()
		}
	}
	eng.Run()
}

// BenchmarkPortSend contrasts the pristine send path against one where link
// injectors were applied and then reverted. The two should be
// indistinguishable: all fault state defaults to off and a reverted injector
// leaves no residue on the hot path.
func BenchmarkPortSend(b *testing.B) {
	b.Run("pristine", func(b *testing.B) {
		benchmarkPortSend(b, nil)
	})
	b.Run("injectors-reverted", func(b *testing.B) {
		benchmarkPortSend(b, func(sys *System, link *netsim.Port) {
			armed := []Injector{
				LinkLoss{Link: link, Rate: 0.5, Seed: 1},
				LinkDelay{Link: link, Extra: time.Millisecond, Jitter: time.Millisecond, Seed: 2},
				Partition{Ports: []*netsim.Port{link}},
			}
			for _, inj := range armed {
				inj.Apply(sys)
			}
			for i := len(armed) - 1; i >= 0; i-- {
				armed[i].Revert(sys)
			}
		})
	})
	b.Run("loss-armed", func(b *testing.B) { // for contrast: the non-zero cost
		benchmarkPortSend(b, func(sys *System, link *netsim.Port) {
			LinkLoss{Link: link, Rate: 0.5, Seed: 1}.Apply(sys)
		})
	})
}
