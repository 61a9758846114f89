package tz

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// Signed attestation records. The paper's trusted launch path has the
// secure world vouch for what runs on a node; here each node's secure
// monitor holds a deterministic ed25519 identity key and signs the
// payloads it offers an attestation ledger — in particular the
// migration records, so a migrated VM's provenance chain ("released on
// node 1, admitted on node 2") carries a verifiable signature from each
// side. Ed25519 signing is deterministic (RFC 8032), so signed payloads
// preserve the byte-identical-runs property.
//
// Identities.Stamp is the only path by which a payload becomes signed
// ledger evidence, and it owns the evidence format: the payload, then
// " sig=" and the first 8 signature bytes in hex.

// stampSep separates a ledger payload from its signature stamp.
const stampSep = " sig="

// Identities is one rack's attestation signing identities: a key per
// node, and every node's verifying key registered with every other, as
// the launch path would distribute them.
type Identities struct {
	keys []ed25519.PrivateKey
	pubs []ed25519.PublicKey

	// Verified and Failed count Stamp's per-record signature checks.
	Verified, Failed uint64
}

// NewIdentities derives the identities of a rack of nodes from its seed.
// The derivation is deterministic — same seed and node, same key — which
// stands in for a provisioned per-device key in real hardware.
func NewIdentities(seed uint64, nodes int) *Identities {
	ids := &Identities{}
	var material [32]byte
	binary.LittleEndian.PutUint64(material[0:], seed)
	copy(material[16:], "khsim-attest-key")
	for i := 0; i < nodes; i++ {
		binary.LittleEndian.PutUint64(material[8:], uint64(i))
		sum := sha256.Sum256(material[:])
		key := ed25519.NewKeyFromSeed(sum[:])
		ids.keys = append(ids.keys, key)
		ids.pubs = append(ids.pubs, key.Public().(ed25519.PublicKey))
	}
	return ids
}

// Stamp signs payload with node's key, checks the signature against the
// key registered for node (counting the outcome in Verified or Failed),
// and returns the ledger bytes — payload, " sig=", the signature's first
// 8 bytes in hex — and whether the check passed.
func (ids *Identities) Stamp(node int, payload []byte) ([]byte, bool) {
	sig := ed25519.Sign(ids.keys[node], payload)
	ok := ids.check(node, payload, sig)
	return fmt.Appendf(nil, "%s"+stampSep+"%x", payload, sig[:8]), ok
}

// check verifies sig over payload against node's registered key and
// counts the outcome.
func (ids *Identities) check(node int, payload, sig []byte) bool {
	ok := node >= 0 && node < len(ids.pubs) && ed25519.Verify(ids.pubs[node], payload, sig)
	if ok {
		ids.Verified++
	} else {
		ids.Failed++
	}
	return ok
}

// Stamped reports whether a ledger payload carries Stamp's signature.
func Stamped(payload []byte) bool { return bytes.Contains(payload, []byte(stampSep)) }
