package main

import (
	"strings"
	"testing"

	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/engine"
	"github.com/go-atomicswap/atomicswap/internal/outcome"
)

// ring2 is a two-party swap: p gives asset a to q, q gives asset b to p.
func ring2(class outcome.Class) ([]submitted, []engine.OrderSnapshot) {
	subs := []submitted{
		{id: 1, offer: core.Offer{Party: "p", Give: []core.ProposedTransfer{{To: "q", Chain: "btc", Asset: "a", Amount: 1}}}},
		{id: 2, offer: core.Offer{Party: "q", Give: []core.ProposedTransfer{{To: "p", Chain: "eth", Asset: "b", Amount: 1}}}},
	}
	orders := []engine.OrderSnapshot{
		{ID: 1, Party: "p", Status: engine.StatusSettled, Swap: "swap-1", Class: class},
		{ID: 2, Party: "q", Status: engine.StatusSettled, Swap: "swap-1", Class: class},
	}
	return subs, orders
}

func owners(m map[chain.AssetID]chain.Owner) ownerFunc {
	return func(_ string, a chain.AssetID) (chain.Owner, bool) {
		o, ok := m[a]
		return o, ok
	}
}

func TestOracleAcceptsCorrectOwners(t *testing.T) {
	subs, orders := ring2(outcome.Deal)
	ok, bad := checkOrders(subs, orders, owners(map[chain.AssetID]chain.Owner{
		"a": chain.ByParty("q"), "b": chain.ByParty("p"),
	}), true)
	if ok != 2 || len(bad) != 0 {
		t.Fatalf("Deal with swapped owners: ok=%d violations=%v", ok, bad)
	}
	subs, orders = ring2(outcome.NoDeal)
	ok, bad = checkOrders(subs, orders, owners(map[chain.AssetID]chain.Owner{
		"a": chain.ByParty("p"), "b": chain.ByParty("q"),
	}), false)
	if ok != 2 || len(bad) != 0 {
		t.Fatalf("refund with owners kept: ok=%d violations=%v", ok, bad)
	}
}

func TestOracleCatchesPlantedWrongOwner(t *testing.T) {
	subs, orders := ring2(outcome.Deal)
	// Asset a never left p although p's outcome says it was paid.
	ok, bad := checkOrders(subs, orders, owners(map[chain.AssetID]chain.Owner{
		"a": chain.ByParty("p"), "b": chain.ByParty("p"),
	}), true)
	if ok != 1 || len(bad) != 1 || !strings.Contains(bad[0], "btc/a owned by party:p, want party:q") {
		t.Fatalf("planted wrong owner: ok=%d violations=%v", ok, bad)
	}
}

func TestOracleChecksProperties(t *testing.T) {
	subs, orders := ring2(outcome.NoDeal)
	held := owners(map[chain.AssetID]chain.Owner{"a": chain.ByParty("p"), "b": chain.ByParty("q")})
	if ok, bad := checkOrders(subs, orders, held, true); ok != 0 || len(bad) != 2 {
		t.Fatalf("property (1), refunds in an all-conforming run: ok=%d violations=%v", ok, bad)
	}
	orders[0].Class = outcome.Underwater
	if ok, bad := checkOrders(subs, orders, held, false); ok != 1 || len(bad) != 1 || !strings.Contains(bad[0], "Underwater") {
		t.Fatalf("property (2), conforming party Underwater: ok=%d violations=%v", ok, bad)
	}
	orders[0].Status = engine.StatusRejected
	if ok, bad := checkOrders(subs, orders[:1], held, false); ok != 0 || len(bad) != 2 {
		t.Fatalf("rejected and missing orders: ok=%d violations=%v", ok, bad)
	}
}
