package switchd

// Phase is a job's phase, named for the tests in package switchd_test.
type Phase = phase

// The phases a job can wait in between two engine events.
const (
	PhaseOpen    = phaseOpen
	PhaseInstall = phaseInstall
	PhaseFinish  = phaseFinish
)

func (p phase) String() string {
	return [...]string{"allocate", "open", "install", "finish"}[p]
}

// CurrentJob reports the job in progress — its kind, its FID and the phase
// it takes next — or ok false when the controller is idle.
func (c *Controller) CurrentJob() (kind JobKind, fid uint16, p Phase, ok bool) {
	if c.cur == nil {
		return "", 0, 0, false
	}
	return c.cur.rec.Kind, c.cur.rec.FID, c.cur.phase, true
}
