// Package genesis defines the committee configuration file shared by real
// deployments (cmd/hammerhead-node) and the key-generation tool
// (cmd/hammerhead-keygen): validator names, stakes, network addresses and
// public keys, plus each validator's private key file.
package genesis

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"hammerhead/internal/crypto"
	"hammerhead/internal/types"
)

// ValidatorSpec is one committee member in the configuration file.
type ValidatorSpec struct {
	Name      string `json:"name"`
	Stake     uint64 `json:"stake"`
	Address   string `json:"address"`
	PublicKey string `json:"public_key"` // hex
}

// File is the on-disk committee configuration.
type File struct {
	// Scheme names the signature scheme ("ed25519" or "insecure").
	Scheme string `json:"scheme"`
	// ScheduleSeed seeds the initial leader schedule permutation; it must be
	// identical across the committee.
	ScheduleSeed uint64          `json:"schedule_seed"`
	Validators   []ValidatorSpec `json:"validators"`
}

// Load reads and validates a committee file.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("genesis: reading %s: %w", path, err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("genesis: parsing %s: %w", path, err)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

// Save writes the committee file.
func (f *File) Save(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("genesis: encoding committee: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("genesis: writing %s: %w", path, err)
	}
	return nil
}

// Validate reports structural errors.
func (f *File) Validate() error {
	if _, err := crypto.SchemeByName(f.Scheme); err != nil {
		return err
	}
	if len(f.Validators) == 0 {
		return fmt.Errorf("genesis: committee has no validators")
	}
	for i, v := range f.Validators {
		if v.Stake == 0 {
			return fmt.Errorf("genesis: validator %d (%s) has zero stake", i, v.Name)
		}
		if strings.TrimSpace(v.PublicKey) == "" {
			return fmt.Errorf("genesis: validator %d (%s) has no public key", i, v.Name)
		}
	}
	return nil
}

// Committee materializes the stake-weighted committee.
func (f *File) Committee() (*types.Committee, error) {
	authorities := make([]types.Authority, len(f.Validators))
	for i, v := range f.Validators {
		pub, err := hex.DecodeString(v.PublicKey)
		if err != nil {
			return nil, fmt.Errorf("genesis: validator %d public key: %w", i, err)
		}
		authorities[i] = types.Authority{
			ID:        types.ValidatorID(i),
			Name:      v.Name,
			Stake:     types.Stake(v.Stake),
			PublicKey: pub,
			Address:   v.Address,
		}
	}
	return types.NewCommittee(authorities)
}

// PublicKeys returns every validator's verification key in ID order.
func (f *File) PublicKeys() ([]crypto.PublicKey, error) {
	out := make([]crypto.PublicKey, len(f.Validators))
	for i, v := range f.Validators {
		pub, err := hex.DecodeString(v.PublicKey)
		if err != nil {
			return nil, fmt.Errorf("genesis: validator %d public key: %w", i, err)
		}
		out[i] = crypto.PublicKey(pub)
	}
	return out, nil
}

// PeerAddrs maps every validator except self to its dial address.
func (f *File) PeerAddrs(self types.ValidatorID) map[types.ValidatorID]string {
	out := make(map[types.ValidatorID]string, len(f.Validators)-1)
	for i, v := range f.Validators {
		if types.ValidatorID(i) == self {
			continue
		}
		out[types.ValidatorID(i)] = v.Address
	}
	return out
}

// WriteKeyFile stores a private key as hex with owner-only permissions.
func WriteKeyFile(path string, priv crypto.PrivateKey) error {
	if err := os.WriteFile(path, []byte(hex.EncodeToString(priv)+"\n"), 0o600); err != nil {
		return fmt.Errorf("genesis: writing key file %s: %w", path, err)
	}
	return nil
}

// ReadKeyFile loads a private key written by WriteKeyFile.
func ReadKeyFile(path string) (crypto.PrivateKey, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("genesis: reading key file %s: %w", path, err)
	}
	raw, err := hex.DecodeString(strings.TrimSpace(string(data)))
	if err != nil {
		return nil, fmt.Errorf("genesis: decoding key file %s: %w", path, err)
	}
	return crypto.PrivateKey(raw), nil
}

// Generate builds a committee file plus key pairs for n validators with
// equal stake, deterministic from clusterSeed. Addresses are host:basePort+i.
func Generate(schemeName string, clusterSeed [32]byte, n int, host string, basePort int) (*File, []crypto.KeyPair, error) {
	scheme, err := crypto.SchemeByName(schemeName)
	if err != nil {
		return nil, nil, err
	}
	pairs, _, err := crypto.CommitteeKeys(scheme, clusterSeed, n)
	if err != nil {
		return nil, nil, err
	}
	f := &File{Scheme: schemeName, ScheduleSeed: 7}
	for i, kp := range pairs {
		f.Validators = append(f.Validators, ValidatorSpec{
			Name:      fmt.Sprintf("validator-%d", i),
			Stake:     1,
			Address:   fmt.Sprintf("%s:%d", host, basePort+i),
			PublicKey: hex.EncodeToString(kp.Public),
		})
	}
	return f, pairs, nil
}
