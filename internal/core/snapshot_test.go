package core

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// TestSnapshotDifferential pins the crash-safety tentpole: interrupting
// a run at an arbitrary slot — any phase of the b-slot MMA cycle, with
// transfers in flight through the completion calendar and the Requests
// Register — by Snapshot+RestoreBuffer must be invisible. The restored
// buffer replays the remaining stimulus with identical deliveries,
// identical final statistics and an identical clock, across ECQF/MDQF
// × b × bounded/unbounded DRAM × renaming; and a snapshot of the
// restored buffer is byte-identical to the original snapshot.
func TestSnapshotDifferential(t *testing.T) {
	for ci, cfg := range ffConfigs() {
		cfg := cfg
		t.Run(cfgName(cfg), func(t *testing.T) {
			ref := newOracle(t, cfg)
			rng := rand.New(rand.NewSource(int64(70117 + ci)))
			ins, want := denseStimulus(t, ref, rng, 3000)

			// Cut at the start, the end, and one full MMA cycle of
			// consecutive mid-run slots so every phase of the b-slot
			// cycle is a snapshot point.
			cuts := []int{0, len(ins) / 2, len(ins)}
			for ph := 0; ph < cfg.Bsmall; ph++ {
				cuts = append(cuts, 1001+ph)
			}
			for _, cut := range cuts {
				live, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < cut; i++ {
					if _, err := live.Tick(ins[i]); err != nil {
						t.Fatalf("cut %d: live tick %d: %v", cut, i, err)
					}
				}
				var snap bytes.Buffer
				if err := live.Snapshot(&snap); err != nil {
					t.Fatalf("cut %d: snapshot: %v", cut, err)
				}
				restored, err := RestoreBuffer(bytes.NewReader(snap.Bytes()), cfg)
				if err != nil {
					t.Fatalf("cut %d: restore: %v", cut, err)
				}
				var again bytes.Buffer
				if err := restored.Snapshot(&again); err != nil {
					t.Fatalf("cut %d: re-snapshot: %v", cut, err)
				}
				if !bytes.Equal(snap.Bytes(), again.Bytes()) {
					t.Fatalf("cut %d: snapshot of restored buffer is not byte-identical", cut)
				}
				if got, wantS := restored.Stats(), live.Stats(); got != wantS {
					t.Fatalf("cut %d: stats diverge at restore:\nrestored %+v\nlive     %+v", cut, got, wantS)
				}
				for i := cut; i < len(ins); i++ {
					out, err := restored.Tick(ins[i])
					if err != nil {
						t.Fatalf("cut %d: restored tick %d: %v", cut, i, err)
					}
					if got := outcomeOf(out); got != want[i] {
						t.Fatalf("cut %d: slot %d: restored %+v, reference %+v", cut, i, got, want[i])
					}
				}
				if got, wantS := restored.Stats(), ref.Stats(); got != wantS {
					t.Errorf("cut %d: final stats diverge:\nrestored %+v\nref      %+v", cut, got, wantS)
				}
				if restored.Now() != ref.Now() {
					t.Errorf("cut %d: clock diverges: restored %d, ref %d", cut, restored.Now(), ref.Now())
				}
			}
		})
	}
}

// TestSnapshotRestoreThenBatch pins that a restored buffer runs
// TickBatch identically: the substrate is restored in place under the
// concrete pointers New resolved, so the first TickBatch after a
// restore is the interesting one.
func TestSnapshotRestoreThenBatch(t *testing.T) {
	cfg := Config{Q: 8, B: 8, Bsmall: 4, Banks: 16, Renaming: true, BankCapacityBlocks: 64}
	ref := newOracle(t, cfg)
	rng := rand.New(rand.NewSource(51109))
	ins, want := denseStimulus(t, ref, rng, 4000)

	cut := len(ins) / 2
	live, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cut; i++ {
		if _, err := live.Tick(ins[i]); err != nil {
			t.Fatalf("live tick %d: %v", i, err)
		}
	}
	var snap bytes.Buffer
	if err := live.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreBuffer(&snap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	replay(t, restored, ins[cut:], want[cut:], 23)
	if got, wantS := restored.Stats(), ref.Stats(); got != wantS {
		t.Errorf("final stats diverge:\nrestored %+v\nref      %+v", got, wantS)
	}
}

// TestSnapshotVersionRejected pins the version gate: a future layout
// surfaces ErrSnapshotVersion, not a misparse.
func TestSnapshotVersionRejected(t *testing.T) {
	_, err := RestoreBuffer(strings.NewReader("!snapshot version=99\n"), Config{Q: 4, B: 8, Banks: 16})
	if !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("RestoreBuffer = %v, want ErrSnapshotVersion", err)
	}
}

// TestSnapshotConfigMismatch pins that restoring into a differently
// dimensioned buffer is rejected outright.
func TestSnapshotConfigMismatch(t *testing.T) {
	buf, err := New(Config{Q: 4, B: 8, Banks: 16})
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := buf.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	_, err = RestoreBuffer(&snap, Config{Q: 8, B: 8, Banks: 16})
	if !errors.Is(err, ErrSnapshot) {
		t.Fatalf("RestoreBuffer = %v, want ErrSnapshot", err)
	}
}

// TestSnapshotTruncated pins that a stream cut short fails loudly.
func TestSnapshotTruncated(t *testing.T) {
	cfg := Config{Q: 8, B: 8, Bsmall: 4, Banks: 16}
	buf := newOracle(t, cfg)
	rng := rand.New(rand.NewSource(7))
	denseStimulus(t, buf, rng, 500)
	var snap bytes.Buffer
	if err := buf.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	cutoff := snap.Len() / 2
	if _, err := RestoreBuffer(bytes.NewReader(snap.Bytes()[:cutoff]), cfg); err == nil {
		t.Fatal("restore of a truncated snapshot succeeded")
	}
}
