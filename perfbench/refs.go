package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"

	"photon/internal/exp"
	"photon/internal/farm"
)

// refs is what the workloads stand for at one seed, derived afresh from
// the program each time rather than copied into the benchmark: a run's
// printed figures digest must equal FiguresSerialDigest, and the plan
// workload's answers must equal Plan, the answers of the plan command.
type refs struct {
	Seed                uint64          `json:"seed"`
	FiguresPoints       int             `json:"figures_points"`
	FiguresFingerprint  string          `json:"figures_fingerprint"`
	FiguresSerialDigest string          `json:"figures_serial_digest"`
	Plan                json.RawMessage `json:"plan"`
}

// printRefs derives the references at seed. The figures digest comes
// from farm.SerialGridDigest (one worker, no farm supervision) and the
// plan answers from `go run photon/cmd/plan`, so it must run inside this
// module with the go command on PATH.
func printRefs(w io.Writer, seed uint64) error {
	opts := exp.QuickOptions()
	opts.Seed = seed
	g, err := farm.Build("figures", opts)
	if err != nil {
		return err
	}
	digest, err := farm.SerialGridDigest(g)
	if err != nil {
		return err
	}
	plan, err := planCLI(seed)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(refs{
		Seed:                seed,
		FiguresPoints:       len(g.Points),
		FiguresFingerprint:  fmt.Sprintf("%016x", g.Fingerprint()),
		FiguresSerialDigest: fmt.Sprintf("%016x", digest),
		Plan:                plan,
	}, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}

// planCLI runs the plan command the plan workload stands for and
// returns its -json answers.
func planCLI(seed uint64) (json.RawMessage, error) {
	cmd := exec.Command("go", "run", "photon/cmd/plan",
		"-budget", strconv.Itoa(planBudget), "-quick", "-json", "-seed", strconv.FormatUint(seed, 10))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	cmd.Env = append(os.Environ(), "GOFLAGS=", "GOPROXY=off")
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("plan command: %v: %s", err, stderr.String())
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, out); err != nil {
		return nil, fmt.Errorf("plan command output: %w", err)
	}
	return compact.Bytes(), nil
}
