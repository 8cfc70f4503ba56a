package main

import (
	"fmt"
	"io"
)

// pinnedDigests are the outputs every run's set-up must reproduce bit
// for bit, measured on linux/amd64. The set-up runs on fixed seeds
// whatever -seed says, so one pin covers every run. The pipeline's
// digest depends on -scale; the serve workloads ignore -scale.
//
//   - pipeline: the FNV-64a fold of each set-up iteration's sweep
//     predictions, explored timeout and RT, and decision-ledger chain.
//   - serve-*: the fold of each tenant's ledger chain, read from the
//     snapshot sprintd writes when it drains after a fixed request script.
//
// A run whose digest differs reports correct=false and prints the digest
// it got; pin that value only after explaining the change in behaviour.
var pinnedDigests = map[string]string{
	"pipeline/full":  "56c3a0a88996fa82",
	"pipeline/smoke": "ec3043d2282e7e5e",
	"serve-load":     "276f584dadbd83f2",
	"serve-retune":   "d9f33b0674ea8d46",
}

// checkPin compares a set-up digest with the pin under key.
func checkPin(r *Result, log io.Writer, key string, digest uint64) {
	got := fmt.Sprintf("%016x", digest)
	if want := pinnedDigests[key]; got != want {
		r.fail(log, "%s set-up digest %s, pinned %q", key, got, want)
	}
}

// FNV-64a over 64-bit little-endian words, the construction of the
// decision ledger's fingerprint chain.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvWord(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}
