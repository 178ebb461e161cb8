package serve

import (
	"testing"
	"time"

	"odin/internal/telemetry"
)

func TestAdmissionTokenBucket(t *testing.T) {
	a := newAdmission(AdmissionOptions{
		TenantRPS: 1, TenantBurst: 2, MaxInFlight: -1, FailThreshold: -1,
	}, telemetry.NewRegistry())

	for i := 0; i < 2; i++ {
		rel, shed := a.admit("acme")
		if shed != nil {
			t.Fatalf("burst admit %d shed: %+v", i, shed)
		}
		rel()
	}
	rel, shed := a.admit("acme")
	if shed == nil {
		rel()
		t.Fatal("third admit should exhaust the burst")
	}
	if shed.Reason != ShedRateLimit || shed.RetryAfter < time.Second {
		t.Fatalf("shed = %+v", shed)
	}
	// Tenants are independent: a fresh tenant still has its burst.
	if rel, shed := a.admit("other"); shed != nil {
		t.Fatalf("independent tenant shed: %+v", shed)
	} else {
		rel()
	}
}

func TestAdmissionInFlightCap(t *testing.T) {
	a := newAdmission(AdmissionOptions{
		TenantRPS: -1, MaxInFlight: 2, FailThreshold: -1,
	}, telemetry.NewRegistry())

	rel1, shed := a.admit("a")
	if shed != nil {
		t.Fatal(shed)
	}
	rel2, shed := a.admit("b")
	if shed != nil {
		t.Fatal(shed)
	}
	if _, shed := a.admit("c"); shed == nil || shed.Reason != ShedOverload {
		t.Fatalf("over-cap admit: %+v", shed)
	}
	rel1()
	rel1() // release is idempotent
	if a.InFlight() != 1 {
		t.Fatalf("in flight = %d, want 1", a.InFlight())
	}
	rel3, shed := a.admit("c")
	if shed != nil {
		t.Fatalf("post-release admit: %+v", shed)
	}
	rel3()
	rel2()
	if a.InFlight() != 0 {
		t.Fatalf("in flight = %d, want 0", a.InFlight())
	}
}

func TestAdmissionTenantBreaker(t *testing.T) {
	a := newAdmission(AdmissionOptions{
		TenantRPS: -1, MaxInFlight: -1,
		FailThreshold: 2, FailBackoff: 50 * time.Millisecond,
	}, telemetry.NewRegistry())

	admitOK := func(tenant string) bool {
		rel, shed := a.admit(tenant)
		if shed != nil {
			return false
		}
		rel()
		return true
	}

	// Two consecutive failures trip the breaker.
	a.report("evil", false)
	if !admitOK("evil") {
		t.Fatal("one failure must not trip")
	}
	a.report("evil", false)
	rel, shed := a.admit("evil")
	if shed == nil {
		rel()
		t.Fatal("two failures must trip the breaker")
	}
	if shed.Reason != ShedTenantBreaker {
		t.Fatalf("shed = %+v", shed)
	}
	// Other tenants are untouched.
	if !admitOK("good") {
		t.Fatal("breaker must be tenant-scoped")
	}
	// The window expires, and a success resets the failure count.
	time.Sleep(60 * time.Millisecond)
	if !admitOK("evil") {
		t.Fatal("breaker window should have expired")
	}
	a.report("evil", true)
	a.report("evil", false)
	if !admitOK("evil") {
		t.Fatal("success must reset the consecutive-failure count")
	}

	snap := a.snapshot()
	var evil *TenantStats
	for i := range snap {
		if snap[i].Tenant == "evil" {
			evil = &snap[i]
		}
	}
	if evil == nil || evil.BreakerTrips != 1 || evil.Failed != 3 {
		t.Fatalf("snapshot = %+v", snap)
	}
}
