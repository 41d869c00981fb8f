package main

import (
	"os/exec"
	"syscall"
)

// dieWithParent has the kernel kill the child if the benchmark itself is
// killed, so an interrupted run leaves no krspd behind. It is the reason
// the benchmark builds on Linux only: the krsplint loader type-checks
// every file of a package regardless of build constraints, so a portable
// fallback in a second file would collide with this one.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
