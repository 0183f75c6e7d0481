package dram

import (
	"math/rand"
	"testing"
)

func newTestDevice(t *testing.T, channels int) *Device {
	t.Helper()
	g := DefaultGeometry()
	g.Channels = channels
	d, err := NewDevice(DDR2_800(), g)
	if err != nil {
		t.Fatalf("NewDevice: %v", err)
	}
	return d
}

func TestNewDeviceRejectsInvalidInputs(t *testing.T) {
	bad := DDR2_800()
	bad.TCL = 0
	if _, err := NewDevice(bad, DefaultGeometry()); err == nil {
		t.Error("NewDevice accepted invalid timing")
	}
	g := DefaultGeometry()
	g.Banks = 7
	if _, err := NewDevice(DDR2_800(), g); err == nil {
		t.Error("NewDevice accepted invalid geometry")
	}
}

func TestRowStateTransitions(t *testing.T) {
	d := newTestDevice(t, 1)
	if s := d.RowStateOf(0, 10); s != RowClosed {
		t.Fatalf("fresh bank state = %v, want closed", s)
	}
	if d.OpenRow(0) != -1 {
		t.Fatal("fresh bank should report open row -1")
	}
	now := int64(0)
	if !d.CanIssue(now, CmdActivate, 0, 10) {
		t.Fatal("activate to closed bank should be legal")
	}
	d.Issue(now, CmdActivate, 0, 10)
	if s := d.RowStateOf(0, 10); s != RowHit {
		t.Errorf("after ACT row 10: state = %v, want hit", s)
	}
	if s := d.RowStateOf(0, 11); s != RowConflict {
		t.Errorf("after ACT row 10, row 11 state = %v, want conflict", s)
	}
	if d.OpenRow(0) != 10 {
		t.Errorf("open row = %d, want 10", d.OpenRow(0))
	}
}

func TestNextCommandPerRowState(t *testing.T) {
	d := newTestDevice(t, 1)
	if c := d.NextCommand(0, 5, false); c != CmdActivate {
		t.Errorf("closed bank next command = %v, want ACT", c)
	}
	d.Issue(0, CmdActivate, 0, 5)
	if c := d.NextCommand(0, 5, false); c != CmdRead {
		t.Errorf("row-hit read next command = %v, want RD", c)
	}
	if c := d.NextCommand(0, 5, true); c != CmdWrite {
		t.Errorf("row-hit write next command = %v, want WR", c)
	}
	if c := d.NextCommand(0, 6, false); c != CmdPrecharge {
		t.Errorf("row-conflict next command = %v, want PRE", c)
	}
}

func TestReadRequiresTRCDAfterActivate(t *testing.T) {
	d := newTestDevice(t, 1)
	tm := d.Timing()
	d.Issue(0, CmdActivate, 0, 3)
	for now := int64(1); now < tm.TRCD; now++ {
		if d.CanIssue(now, CmdRead, 0, 3) {
			t.Fatalf("read legal at %d, before tRCD=%d", now, tm.TRCD)
		}
	}
	if !d.CanIssue(tm.TRCD, CmdRead, 0, 3) {
		t.Fatalf("read should be legal exactly at tRCD=%d", tm.TRCD)
	}
}

func TestPrechargeRespectsTRAS(t *testing.T) {
	d := newTestDevice(t, 1)
	tm := d.Timing()
	d.Issue(0, CmdActivate, 0, 3)
	if d.CanIssue(tm.TRAS-1, CmdPrecharge, 0, 0) {
		t.Fatal("precharge legal before tRAS elapsed")
	}
	if !d.CanIssue(tm.TRAS, CmdPrecharge, 0, 0) {
		t.Fatal("precharge should be legal at tRAS")
	}
}

func TestActivateAfterPrechargeRespectsTRP(t *testing.T) {
	d := newTestDevice(t, 1)
	tm := d.Timing()
	d.Issue(0, CmdActivate, 0, 3)
	pre := tm.TRAS
	d.Issue(pre, CmdPrecharge, 0, 0)
	if d.CanIssue(pre+tm.TRP-1, CmdActivate, 0, 4) {
		t.Fatal("activate legal before tRP elapsed")
	}
	if !d.CanIssue(pre+tm.TRP, CmdActivate, 0, 4) {
		t.Fatal("activate should be legal at PRE+tRP")
	}
}

func TestCommandBusOneCommandPerCycle(t *testing.T) {
	d := newTestDevice(t, 1)
	tm := d.Timing()
	d.Issue(5, CmdActivate, 0, 1)
	if d.CanIssue(5, CmdActivate, 1, 1) {
		t.Fatal("two commands in one cycle should be illegal")
	}
	// A read to bank 0 is otherwise legal at 5+tRCD; issuing an activate to
	// bank 1 on that same cycle must block it (one command per cycle).
	rd := 5 + tm.TRCD
	if !d.CanIssue(rd, CmdRead, 0, 1) {
		t.Fatal("read should be legal at ACT+tRCD")
	}
	d.Issue(rd, CmdActivate, 1, 1)
	if d.CanIssue(rd, CmdRead, 0, 1) {
		t.Fatal("read should be blocked by the command bus in the activate's cycle")
	}
	if !d.CanIssue(rd+1, CmdRead, 0, 1) {
		t.Fatal("read should be legal the cycle after")
	}
}

func TestTRRDSpacesActivatesAcrossBanks(t *testing.T) {
	d := newTestDevice(t, 1)
	tm := d.Timing()
	d.Issue(0, CmdActivate, 0, 1)
	for now := int64(1); now < tm.TRRD; now++ {
		if d.CanIssue(now, CmdActivate, 1, 1) {
			t.Fatalf("activate to bank 1 legal at %d, before tRRD=%d", now, tm.TRRD)
		}
	}
	if !d.CanIssue(tm.TRRD, CmdActivate, 1, 1) {
		t.Fatal("activate to bank 1 should be legal at tRRD")
	}
}

func TestTFAWLimitsFourActivates(t *testing.T) {
	d := newTestDevice(t, 1)
	tm := d.Timing()
	// Issue four activates as fast as tRRD allows.
	var now int64
	for b := 0; b < 4; b++ {
		for !d.CanIssue(now, CmdActivate, b, 1) {
			now++
		}
		d.Issue(now, CmdActivate, b, 1)
	}
	firstACT := int64(0)
	// The fifth activate must wait until firstACT+tFAW.
	fifth := firstACT + tm.TFAW
	for c := now + 1; c < fifth; c++ {
		if d.CanIssue(c, CmdActivate, 4, 1) {
			t.Fatalf("fifth activate legal at %d, before tFAW window end %d", c, fifth)
		}
	}
	if !d.CanIssue(fifth, CmdActivate, 4, 1) {
		t.Fatalf("fifth activate should be legal at %d", fifth)
	}
}

func TestDataBusSerializesBursts(t *testing.T) {
	d := newTestDevice(t, 1)
	tm := d.Timing()
	d.Issue(0, CmdActivate, 0, 1)
	d.Issue(tm.TRRD, CmdActivate, 1, 1)
	end0 := d.Issue(tm.TRCD, CmdRead, 0, 1)
	if want := tm.TRCD + tm.TCL + d.BurstCycles(); end0 != want {
		t.Fatalf("read completion = %d, want %d", end0, want)
	}
	// A second read's burst may not overlap the first: its data window
	// starts at issue+tCL, which must be >= end0.
	earliest := end0 - tm.TCL
	ok := int64(-1)
	for c := tm.TRCD + 1; c <= earliest+4; c++ {
		if d.CanIssue(c, CmdRead, 1, 1) {
			ok = c
			break
		}
	}
	if ok == -1 {
		t.Fatal("second read never became legal")
	}
	if ok < earliest {
		t.Fatalf("second read legal at %d; its burst would overlap (earliest legal %d)", ok, earliest)
	}
}

func TestLockStepChannelsShortenBursts(t *testing.T) {
	d1 := newTestDevice(t, 1)
	d2 := newTestDevice(t, 2)
	d4 := newTestDevice(t, 4)
	if d1.BurstCycles() != 4 || d2.BurstCycles() != 2 || d4.BurstCycles() != 1 {
		t.Errorf("burst cycles = %d/%d/%d for 1/2/4 channels, want 4/2/1",
			d1.BurstCycles(), d2.BurstCycles(), d4.BurstCycles())
	}
}

func TestWriteToReadTurnaround(t *testing.T) {
	d := newTestDevice(t, 1)
	tm := d.Timing()
	d.Issue(0, CmdActivate, 0, 1)
	end := d.Issue(tm.TRCD, CmdWrite, 0, 1)
	// A read on the channel must wait out tWTR after the write burst (and,
	// same-bank, the bank occupancy).
	want := max64(end+tm.TWTR, tm.TRCD+tm.TBankCAS)
	for c := end; c < want; c++ {
		if d.CanIssue(c, CmdRead, 0, 1) {
			t.Fatalf("read legal at %d, before write-to-read turnaround at %d", c, want)
		}
	}
	if !d.CanIssue(want, CmdRead, 0, 1) {
		t.Fatal("read should be legal after tWTR and bank occupancy")
	}
}

func TestWriteRecoveryDelaysPrecharge(t *testing.T) {
	d := newTestDevice(t, 1)
	tm := d.Timing()
	d.Issue(0, CmdActivate, 0, 1)
	end := d.Issue(tm.TRCD, CmdWrite, 0, 1)
	want := max64(end+tm.TWR, tm.TRCD+tm.TBankCAS)
	if d.CanIssue(want-1, CmdPrecharge, 0, 0) {
		t.Fatal("precharge legal before write recovery")
	}
	if !d.CanIssue(want, CmdPrecharge, 0, 0) {
		t.Fatalf("precharge should be legal at %d", want)
	}
}

// TestBankOccupancySerializesSameBankCAS verifies the non-pipelined bank
// model: a second CAS to the same bank must wait out tBankCAS, while a CAS
// to a different bank may proceed as soon as the data bus allows.
func TestBankOccupancySerializesSameBankCAS(t *testing.T) {
	d := newTestDevice(t, 1)
	tm := d.Timing()
	d.Issue(0, CmdActivate, 0, 1)
	d.Issue(tm.TRRD, CmdActivate, 1, 1)
	rd := tm.TRCD
	d.Issue(rd, CmdRead, 0, 1)
	for c := rd + 1; c < rd+tm.TBankCAS; c++ {
		if d.CanIssue(c, CmdRead, 0, 1) {
			t.Fatalf("same-bank read legal at %d, before tBankCAS=%d elapsed", c, tm.TBankCAS)
		}
	}
	if !d.CanIssue(rd+tm.TBankCAS, CmdRead, 0, 1) {
		t.Fatal("same-bank read should be legal after tBankCAS")
	}
	// Different bank: legal as soon as the data bus window is free.
	other := rd + tm.TCL + d.BurstCycles() - tm.TCL // = rd + burst
	found := false
	for c := rd + 1; c <= other+2; c++ {
		if d.CanIssue(c, CmdRead, 1, 1) {
			found = true
			if c >= rd+tm.TBankCAS {
				t.Fatalf("cross-bank read had to wait for tBankCAS (legal only at %d)", c)
			}
			break
		}
	}
	if !found {
		t.Fatal("cross-bank read never became legal in the probe window")
	}
}

func TestIssueIllegalCommandPanics(t *testing.T) {
	d := newTestDevice(t, 1)
	defer func() {
		if recover() == nil {
			t.Error("Issue of illegal command did not panic")
		}
	}()
	d.Issue(0, CmdRead, 0, 1) // bank closed: read is illegal
}

func TestCASToClosedOrWrongRowIsIllegal(t *testing.T) {
	d := newTestDevice(t, 1)
	tm := d.Timing()
	if d.CanIssue(0, CmdRead, 0, 1) || d.CanIssue(0, CmdWrite, 0, 1) {
		t.Fatal("CAS to closed bank should be illegal")
	}
	d.Issue(0, CmdActivate, 0, 1)
	if d.CanIssue(tm.TRCD, CmdRead, 0, 2) {
		t.Fatal("CAS to non-open row should be illegal")
	}
	if d.CanIssue(tm.TRCD, CmdPrecharge, 0, 0) {
		t.Fatal("precharge before tRAS should be illegal")
	}
	if d.CanIssue(tm.TRCD, CmdActivate, 0, 2) {
		t.Fatal("activate to open bank should be illegal")
	}
}

// TestRandomLegalCommandStreamInvariants drives the device with a random but
// always-legal command stream and checks global invariants: stats consistency
// and that CanIssue never permits a burst overlap (monotone data windows).
func TestRandomLegalCommandStreamInvariants(t *testing.T) {
	d := newTestDevice(t, 1)
	g := d.Geometry()
	rng := rand.New(rand.NewSource(42))
	var lastDataEnd, lastDataStart int64 = 0, -1
	issued := 0
	for now := int64(0); now < 20000 && issued < 3000; now++ {
		bankID := rng.Intn(g.Banks)
		row := int64(rng.Intn(16))
		cmds := []Command{CmdActivate, CmdPrecharge, CmdRead, CmdWrite}
		c := cmds[rng.Intn(len(cmds))]
		if !d.CanIssue(now, c, bankID, row) {
			continue
		}
		end := d.Issue(now, c, bankID, row)
		issued++
		if c == CmdRead || c == CmdWrite {
			var start int64
			if c == CmdRead {
				start = now + d.Timing().TCL
			} else {
				start = now + d.Timing().TCWL
			}
			if start < lastDataEnd {
				t.Fatalf("burst starting at %d overlaps previous burst ending %d", start, lastDataEnd)
			}
			if start < lastDataStart {
				t.Fatalf("data windows reordered: start %d before previous start %d", start, lastDataStart)
			}
			lastDataStart, lastDataEnd = start, end
		}
	}
	st := d.Stats()
	if issued == 0 {
		t.Fatal("random stream issued no commands")
	}
	if st.Activates < st.Precharges {
		t.Errorf("more precharges (%d) than activates (%d)", st.Precharges, st.Activates)
	}
	if st.BusyCycles != (st.Reads+st.Writes)*d.BurstCycles() {
		t.Errorf("busy cycles %d inconsistent with %d bursts", st.BusyCycles, st.Reads+st.Writes)
	}
	if hr := st.RowHitRate(); hr < 0 || hr > 1 {
		t.Errorf("row hit rate %f out of [0,1]", hr)
	}
}

func TestRowHitRateEmptyAndClamped(t *testing.T) {
	var s Stats
	if s.RowHitRate() != 0 {
		t.Error("empty stats should have hit rate 0")
	}
	s = Stats{Reads: 1, Activates: 5}
	if s.RowHitRate() != 0 {
		t.Error("hit rate should clamp at 0 when activates exceed CAS")
	}
}

// TestRowHitRateUndercountsUnusedActivate: RowHitRate's CAS − ACT estimate
// assumes each activate serves exactly one CAS that needed it. An activate
// precharged before any CAS breaks that: here 2 of 3 reads hit an open
// row, but the estimate reports 1 of 3.
func TestRowHitRateUndercountsUnusedActivate(t *testing.T) {
	d := newTestDevice(t, 1)
	now := int64(0)
	issue := func(cmd Command, row int64) {
		for !d.CanIssue(now, cmd, 0, row) {
			now++
		}
		d.Issue(now, cmd, 0, row)
	}
	issue(CmdActivate, 1) // opened, then closed unused
	issue(CmdPrecharge, 1)
	issue(CmdActivate, 2)
	issue(CmdRead, 2) // needed the activate
	issue(CmdRead, 2) // hit
	issue(CmdRead, 2) // hit
	st := d.Stats()
	if st.Activates != 2 || st.Reads != 3 {
		t.Fatalf("stats %+v, want 2 activates and 3 reads", st)
	}
	const trueHitRate = 2.0 / 3
	if got := st.RowHitRate(); got != 1.0/3 || got >= trueHitRate {
		t.Errorf("RowHitRate = %v, want the documented under-count 1/3 (true rate %v)", got, trueHitRate)
	}
}
