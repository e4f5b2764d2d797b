package stress

import (
	"fmt"

	"github.com/nezha-dag/nezha/internal/contracts/smallbank"
	"github.com/nezha-dag/nezha/internal/contracts/token"
	"github.com/nezha-dag/nezha/internal/types"
	"github.com/nezha-dag/nezha/internal/workload"
)

// Workload is the transaction source a stress run draws from: an
// unbounded, deterministic stream plus the genesis state and contract
// programs it runs against. Implementations must produce dense per-sender
// nonces (1, 2, 3, ...) — the driver feeds a StrictNonce mempool, which
// parks any sender whose next expected nonce is missing.
type Workload interface {
	// Name labels the workload in reports.
	Name() string
	// Genesis returns the full initial state. It covers the entire
	// account population: a stream has no up-front transaction set to
	// derive touched accounts from.
	Genesis() []types.WriteEntry
	// Contracts maps contract addresses to MiniVM programs.
	Contracts() map[types.Address][]byte
	// NextTx draws the next transaction. Successive calls from one
	// sender must carry consecutive nonces.
	NextTx() *types.Transaction
}

// Options tune the built-in workload constructors.
type Options struct {
	Seed     int64
	Accounts uint64
	// Skew is the Zipfian coefficient in [0, 1].
	Skew float64
	// Sign ed25519-signs every transaction (SmallBank only), so the
	// mempool's batched verification is on the admission path.
	Sign bool
}

// NewWorkload builds a named workload: "smallbank" or "token".
func NewWorkload(name string, opts Options) (Workload, error) {
	if opts.Accounts == 0 {
		opts.Accounts = 10_000
	}
	switch name {
	case "smallbank":
		gen, err := workload.NewGenerator(workload.Config{
			Seed: opts.Seed, Accounts: opts.Accounts, Skew: opts.Skew,
			InitialBalance: 10_000, ReadOnlyRatio: -1,
			Sign: opts.Sign, PerSenderNonces: true,
		})
		if err != nil {
			return nil, err
		}
		return &smallBankWorkload{gen: gen}, nil
	case "token":
		if opts.Sign {
			return nil, fmt.Errorf("stress: the token workload does not sign transactions")
		}
		gen, err := workload.NewTokenGenerator(workload.TokenConfig{
			Seed: opts.Seed, Accounts: opts.Accounts, Skew: opts.Skew,
			InitialBalance: 10_000, MintRatio: 0.1, PerSenderNonces: true,
		})
		if err != nil {
			return nil, err
		}
		return &tokenWorkload{gen: gen}, nil
	default:
		return nil, fmt.Errorf("stress: unknown workload %q (smallbank | token)", name)
	}
}

type smallBankWorkload struct{ gen *workload.Generator }

func (w *smallBankWorkload) Name() string                        { return "smallbank" }
func (w *smallBankWorkload) Genesis() []types.WriteEntry         { return w.gen.GenesisAll() }
func (w *smallBankWorkload) NextTx() *types.Transaction          { return w.gen.NextTx() }
func (w *smallBankWorkload) Contracts() map[types.Address][]byte { return smallbank.Contracts() }

type tokenWorkload struct{ gen *workload.TokenGenerator }

func (w *tokenWorkload) Name() string                        { return "token" }
func (w *tokenWorkload) Genesis() []types.WriteEntry         { return w.gen.GenesisAll() }
func (w *tokenWorkload) NextTx() *types.Transaction          { return w.gen.NextTx() }
func (w *tokenWorkload) Contracts() map[types.Address][]byte { return token.Contracts() }
