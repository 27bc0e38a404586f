package baseline

import "testing"

func TestConstantsMatchPaper(t *testing.T) {
	if P4CompileSeconds != 28.79 {
		t.Errorf("compile time %v, paper: 28.79s", P4CompileSeconds)
	}
	if ActiveRMTStageAvailability != 0.83 {
		t.Errorf("availability %v, paper: 83%%", ActiveRMTStageAvailability)
	}
	if MonolithicCacheAvailability != 0.92 {
		t.Errorf("monolithic availability %v, paper: ~92%%", MonolithicCacheAvailability)
	}
}

func TestNetVRMUnderHalf(t *testing.T) {
	v := NetVRMStageAvailability()
	if v >= 0.5 || v <= 0.2 {
		t.Errorf("NetVRM availability %v, paper: less than half", v)
	}
}

func TestMonolithicCapacity(t *testing.T) {
	// The paper measured 22 isolated cache instances on a 20-stage switch.
	got := MonolithicCacheInstances(20, 2)
	if got < 18 || got > 26 {
		t.Errorf("monolithic instances = %d, want ~22", got)
	}
	if MonolithicCacheInstances(20, 0) != 0 {
		t.Error("zero stages per instance")
	}
	if MonolithicCacheInstances(4, 2) >= MonolithicCacheInstances(20, 2) {
		t.Error("capacity not monotone in stages")
	}
}
