package main

import (
	"fmt"

	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/engine"
	"github.com/go-atomicswap/atomicswap/internal/outcome"
)

// ownerFunc reads an asset's current owner from its chain.
type ownerFunc func(chainName string, asset chain.AssetID) (chain.Owner, bool)

// maxReported caps the violations listed per round; the count is exact.
const maxReported = 20

// checkOrders is the correctness oracle. It works from the offers the
// benchmark itself submitted, not from the engine's record of them, and
// checks each against the chains:
//
//   - the order reached a final outcome (settled: Deal or refund);
//   - paper property (1): with every party conforming, every order Deals;
//   - paper property (2): no conforming party ends Underwater;
//   - each given asset is owned, on its chain, by the party the outcome
//     says: the receiver when the giver's leaving arc triggered (Deal,
//     Underwater), the giver otherwise (NoDeal, FreeRide, Discount). An
//     asset whose deviating receiver never claims it, or whose deviating
//     giver never refunds it, may instead stay in contract escrow (or,
//     after a crash, with the recovered "escrow:<swap>" pseudo-party).
//
// It returns the number of orders that passed and one line per violation.
func checkOrders(subs []submitted, orders []engine.OrderSnapshot, ownerOf ownerFunc, allConforming bool) (ok int, violations []string) {
	byID := make(map[engine.OrderID]engine.OrderSnapshot, len(orders))
	type member struct{ swap, party string }
	bySwap := make(map[member]engine.OrderSnapshot, len(orders))
	for _, o := range orders {
		byID[o.ID] = o
		bySwap[member{o.Swap, o.Party}] = o
	}
	bad := 0
	report := func(format string, args ...any) {
		bad++
		if len(violations) < maxReported {
			violations = append(violations, fmt.Sprintf(format, args...))
		}
	}
	for _, s := range subs {
		o, found := byID[s.id]
		switch {
		case !found:
			report("order %d (%s): unknown to the engine", s.id, s.offer.Party)
			continue
		case o.Status != engine.StatusSettled:
			report("order %d (%s): ended %s %s", s.id, o.Party, o.Status, o.Reason)
			continue
		case o.Deviant == "" && !o.Class.Acceptable():
			report("order %d (%s): conforming party ended %s", s.id, o.Party, o.Class)
			continue
		case allConforming && o.Class != outcome.Deal:
			report("order %d (%s): all parties conform but the order ended %s", s.id, o.Party, o.Class)
			continue
		}
		left := o.Class == outcome.Deal || o.Class == outcome.Underwater
		good := true
		for _, g := range s.offer.Give {
			want, escrowOK := s.offer.Party, o.Deviant != ""
			if left {
				want = g.To
				escrowOK = bySwap[member{o.Swap, string(g.To)}].Deviant != ""
			}
			got, has := ownerOf(g.Chain, g.Asset)
			switch {
			case !has:
				report("order %d: asset %s/%s has no owner", s.id, g.Chain, g.Asset)
			case got.Kind == chain.OwnerParty && got.Party == want:
				continue
			case escrowOK && (got.Kind == chain.OwnerEscrow || got.Party == chain.PartyID("escrow:"+o.Swap)):
				// Recovery re-mints an asset stranded in escrow before the
				// crash under the pseudo-party "escrow:<swap>".
				continue
			default:
				report("order %d (%s, %s): asset %s/%s owned by %s, want party:%s",
					s.id, o.Party, o.Class, g.Chain, g.Asset, got, want)
			}
			good = false
		}
		if good {
			ok++
		}
	}
	if bad > len(violations) {
		violations = append(violations, fmt.Sprintf("... %d violations in all", bad))
	}
	return ok, violations
}
