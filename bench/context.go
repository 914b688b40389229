package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// machineContext is recorded in every result file; `bench compare`
// refuses two files whose contexts differ, because a number taken at
// another GOMAXPROCS, Go version or fsync policy is another number.
type machineContext struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	CPUModel   string `json:"cpu_model"`
	Fsync      string `json:"fsync"`
	Codec      string `json:"codec"`
	Clients    int    `json:"clients"`
	Seconds    int    `json:"run_seconds"`
	WarmupS    int    `json:"warmup_seconds"`
}

func gatherContext(seconds int) machineContext {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	return machineContext{
		Commit:     gitCommit(),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       gogc,
		CPUModel:   cpuModel(),
		Fsync:      "interval",
		Codec:      "binary",
		Clients:    clients,
		Seconds:    seconds,
		WarmupS:    int(warmup.Seconds()),
	}
}

// gitCommit names the checkout. A checkout that is not a git repository
// is a normal case ("unknown"); git is told not to look for one above
// the working directory.
func gitCommit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// comparable lists the fields two result files must share to be
// compared; the commit is what a comparison is allowed to vary.
func (c machineContext) comparable() machineContext {
	c.Commit = ""
	return c
}
