package calib

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Save writes the profile as indented JSON at path, creating parent
// directories as needed. The write goes through a temporary file plus
// rename, so a crash never leaves a half-written profile behind.
func Save(p *Profile, path string) error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("calib: refusing to save invalid profile: %w", err)
	}
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".cost-profile-*.json")
	if err != nil {
		return err
	}
	// CreateTemp's 0600 would survive the rename; a profile is shared
	// configuration, not a secret.
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Load reads and validates a profile written by Save. It returns an
// error for a missing or unreadable file, malformed JSON, a version
// other than Version, and non-monotone or non-finite parameters; a
// caller that proceeds anyway simply installs nothing, leaving budgets
// on the built-in defaults.
func Load(path string) (*Profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("calib: reading profile: %w", err)
	}
	var p Profile
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("calib: parsing profile %s: %w", path, err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("calib: profile %s: %w", path, err)
	}
	return &p, nil
}
