package kernel

import "repro/internal/kmem"

// rtab caches the *Routine pointer of every routine the kernel model
// executes, resolved once at boot. The simulation hot paths then reach
// their routines through a field load instead of the KText.byName map
// lookup that R performs (interned-pointer form of the name lookup; the
// map remains for tests and one-off resolution).
//
// Field names match the routine names exactly so call sites read like the
// kernel image inventory.
type rtab struct {
	// Scheduler and low-level exception handling.
	setrq, whichq, remrq  *Routine
	swtch                 *Routine
	save_ctx, restore_ctx *Routine
	sleep, wakeup         *Routine
	exc_vec, exc_save     *Routine
	exc_restore           *Routine
	clock_intr, hardclock *Routine
	softclock, timeout    *Routine
	schedcpu              *Routine
	dksc_intr             *Routine
	net_intr, ip_input    *Routine
	net_daemon            *Routine
	// TLB and page-fault handling.
	utlbmiss, pt_lookup, pagein *Routine
	// System calls and the file system.
	syscall_entry, syscall_exit *Routine
	sys_read, sys_write, rwuio  *Routine
	ufs_readwrite               *Routine
	dksc_strategy, dksc_start   *Routine
	bread, getblk, bwrite       *Routine
	fs_balloc                   *Routine
	sys_open, namei, iget       *Routine
	sys_close, iput             *Routine
	sys_fork, newproc           *Routine
	sys_exec, load_image        *Routine
	sys_exit, sys_wait          *Routine
	sys_sginap, sys_small       *Routine
	sys_brk, proc_misc          *Routine
	str_read, str_write         *Routine
	pipe_rw, tty_ld             *Routine
	// Block operations and frame management.
	bcopy, bclear, vhand *Routine
	pgalloc, pgfree      *Routine
}

// newRtab resolves every cached routine against a placed kernel image.
func newRtab(t *KText) rtab {
	return rtab{
		setrq:         t.R("setrq"),
		whichq:        t.R("whichq"),
		remrq:         t.R("remrq"),
		swtch:         t.R("swtch"),
		save_ctx:      t.R("save_ctx"),
		restore_ctx:   t.R("restore_ctx"),
		sleep:         t.R("sleep"),
		wakeup:        t.R("wakeup"),
		exc_vec:       t.R("exc_vec"),
		exc_save:      t.R("exc_save"),
		exc_restore:   t.R("exc_restore"),
		clock_intr:    t.R("clock_intr"),
		hardclock:     t.R("hardclock"),
		softclock:     t.R("softclock"),
		timeout:       t.R("timeout"),
		schedcpu:      t.R("schedcpu"),
		dksc_intr:     t.R("dksc_intr"),
		net_intr:      t.R("net_intr"),
		ip_input:      t.R("ip_input"),
		net_daemon:    t.R("net_daemon"),
		utlbmiss:      t.R("utlbmiss"),
		pt_lookup:     t.R("pt_lookup"),
		pagein:        t.R("pagein"),
		syscall_entry: t.R("syscall_entry"),
		syscall_exit:  t.R("syscall_exit"),
		sys_read:      t.R("sys_read"),
		sys_write:     t.R("sys_write"),
		rwuio:         t.R("rwuio"),
		ufs_readwrite: t.R("ufs_readwrite"),
		dksc_strategy: t.R("dksc_strategy"),
		dksc_start:    t.R("dksc_start"),
		bread:         t.R("bread"),
		getblk:        t.R("getblk"),
		bwrite:        t.R("bwrite"),
		fs_balloc:     t.R("fs_balloc"),
		sys_open:      t.R("sys_open"),
		namei:         t.R("namei"),
		iget:          t.R("iget"),
		sys_close:     t.R("sys_close"),
		iput:          t.R("iput"),
		sys_fork:      t.R("sys_fork"),
		newproc:       t.R("newproc"),
		sys_exec:      t.R("sys_exec"),
		load_image:    t.R("load_image"),
		sys_exit:      t.R("sys_exit"),
		sys_wait:      t.R("sys_wait"),
		sys_sginap:    t.R("sys_sginap"),
		sys_small:     t.R("sys_small"),
		sys_brk:       t.R("sys_brk"),
		proc_misc:     t.R("proc_misc"),
		str_read:      t.R("str_read"),
		str_write:     t.R("str_write"),
		pipe_rw:       t.R("pipe_rw"),
		tty_ld:        t.R("tty_ld"),
		bcopy:         t.R(kmem.RoutineBcopy),
		bclear:        t.R(kmem.RoutineBclear),
		vhand:         t.R(kmem.RoutineVhand),
		pgalloc:       t.R("pgalloc"),
		pgfree:        t.R("pgfree"),
	}
}
