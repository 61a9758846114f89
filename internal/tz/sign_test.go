package tz

import (
	"bytes"
	"crypto/ed25519"
	"fmt"
	"math/rand"
	"testing"
)

func TestSignerDeterministicAndVerifies(t *testing.T) {
	a := NewIdentities(42, 3)
	b := NewIdentities(42, 3)
	if !bytes.Equal(a.pubs[1], b.pubs[1]) {
		t.Fatal("same (seed, node) derived different keys")
	}
	if bytes.Equal(a.pubs[2], a.pubs[1]) {
		t.Fatal("different nodes share a key")
	}
	if bytes.Equal(NewIdentities(43, 3).pubs[1], a.pubs[1]) {
		t.Fatal("different seeds share a key")
	}

	payload := []byte("lifecycle n1 migrate-out vm=job restarts=0")
	// Ed25519 is deterministic: same payload, same stamp.
	ra, oka := a.Stamp(1, payload)
	rb, okb := b.Stamp(1, payload)
	if !oka || !okb || a.Verified != 1 || a.Failed != 0 {
		t.Fatalf("stamp did not verify: ok=%v/%v verified=%d failed=%d", oka, okb, a.Verified, a.Failed)
	}
	if !bytes.Equal(ra, rb) {
		t.Fatal("signing is not deterministic")
	}
	// Known answer: the key derivation and the stamp are part of every
	// committed artifact, so they must not drift.
	if got := fmt.Sprintf("%x", a.pubs[1]); got != "4a8c1326860364a10041140842b071ac9a07ad2d1ca6650b12245c712960b451" {
		t.Fatalf("node 1 key at seed 42 = %s", got)
	}
	if want := string(payload) + " sig=59c044858dc2e5f6"; string(ra) != want {
		t.Fatalf("stamp = %q, want %q", ra, want)
	}
	if !Stamped(ra) || Stamped(payload) || Stamped([]byte("leader n0 term 1")) {
		t.Fatal("Stamped misclassifies")
	}
}

// TestStampFormat pins the ledger-evidence bytes to the format every
// signed ledger record has carried: the payload, " sig=", and the first
// 8 signature bytes in lower-case hex.
func TestStampFormat(t *testing.T) {
	reference := func(payload, sig []byte) []byte {
		return []byte(fmt.Sprintf("%s sig=%x", payload, sig[:8]))
	}
	rng := rand.New(rand.NewSource(1))
	ids := NewIdentities(7, 4)
	for i := 0; i < 200; i++ {
		payload := make([]byte, rng.Intn(96))
		rng.Read(payload)
		node := rng.Intn(4)
		got, ok := ids.Stamp(node, payload)
		if !ok {
			t.Fatalf("payload %x: stamp did not verify", payload)
		}
		if want := reference(payload, ed25519.Sign(ids.keys[node], payload)); !bytes.Equal(got, want) {
			t.Fatalf("payload %x node %d:\n got %q\nwant %q", payload, node, got, want)
		}
	}
	if ids.Verified != 200 || ids.Failed != 0 {
		t.Fatalf("verified=%d failed=%d, want 200/0", ids.Verified, ids.Failed)
	}
}

// TestStampCheckCountsFailures: the per-record check rejects — and
// counts as failed — a payload altered after signing, a truncated
// signature, and a record checked under another node's id.
func TestStampCheckCountsFailures(t *testing.T) {
	ids := NewIdentities(42, 3)
	payload := []byte("lifecycle n1 migrate-out vm=job restarts=0")
	sig := ed25519.Sign(ids.keys[1], payload)
	if !ids.check(1, payload, sig) {
		t.Fatal("genuine record failed its check")
	}
	bad := map[string]func() bool{
		"altered payload":     func() bool { return ids.check(1, []byte("lifecycle n1 migrate-out vm=job restarts=1"), sig) },
		"truncated signature": func() bool { return ids.check(1, payload, sig[:10]) },
		"another node's id":   func() bool { return ids.check(2, payload, sig) },
		"unregistered node":   func() bool { return ids.check(3, payload, sig) },
	}
	for name, check := range bad {
		if check() {
			t.Errorf("%s: verified", name)
		}
	}
	if ids.Verified != 1 || ids.Failed != uint64(len(bad)) {
		t.Fatalf("verified=%d failed=%d, want 1/%d", ids.Verified, ids.Failed, len(bad))
	}
}
