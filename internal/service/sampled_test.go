package service

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/report"
)

// TestSampledJobIdentityAndCache: a sampled job renders exactly what a
// serial core.Run of the same config renders, and the schedule is part of
// the cache identity — the sampled and full runs of one config must not
// collide in the content-addressed store.
func TestSampledJobIdentityAndCache(t *testing.T) {
	req := smallReq(53)
	req.Sample = "10K:20K:100K"
	cfg, err := req.Config()
	if err != nil {
		t.Fatal(err)
	}
	want := report.Single(core.Run(cfg))

	_, cl := newTestServer(t, Options{Workers: 2})
	ctx := context.Background()
	st, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("sampled job ended %s (%s): %s", st.State, st.ErrorKind, st.Error)
	}
	if st.Report != want {
		t.Errorf("sampled service report diverged from serial run:\n--- serial\n%s\n--- service\n%s", want, st.Report)
	}

	full, err := cl.Submit(ctx, smallReq(53))
	if err != nil || full.State != StateDone {
		t.Fatalf("full-detail job: st=%+v err=%v", full, err)
	}
	if full.Hash == st.Hash {
		t.Error("sampled and full runs share a cache identity")
	}
	if full.Report == st.Report {
		t.Error("sampled report should carry error bars the full report lacks")
	}
}

// TestBadSampleScheduleRejected: a malformed schedule fails validation at
// admission, before any work is queued.
func TestBadSampleScheduleRejected(t *testing.T) {
	srv, _ := newTestServer(t, Options{Workers: 1})
	bad := smallReq(1)
	bad.Sample = "100K:200K" // missing the period field
	if _, err := srv.Submit(bad); err == nil {
		t.Error("malformed sampling schedule admitted")
	}
	bad.Sample = "300K:200K:400K" // period < warmup+len
	if _, err := srv.Submit(bad); err == nil {
		t.Error("unsatisfiable sampling schedule admitted")
	}
	bad.Sample = "300K:200K:10M" // fine by itself, but smallReq's window holds no interval
	if _, err := srv.Submit(bad); err == nil || !strings.Contains(err.Error(), "sample: ") {
		t.Errorf("schedule with zero measured intervals in the window: err = %v, want one naming sample", err)
	}
}
