package main

// The lockpath workload's fixed call tree: sixty-four lock sites, each a
// distinct statement calling Mutex.Lock so that native stack capture
// sees sixty-four distinct top frames. The bodies are identical on
// purpose; only their program counters differ.

// siteFn locks the walker's mutex for its site, runs whatever the path
// nests inside, and unlocks.
type siteFn func(w *walker, path []hop)

// numSites is the size of the call tree.
const numSites = 64

// siteFns is filled at init: the sites call back into the walk, which
// indexes this table, and Go refuses that cycle in a declaration.
var siteFns [numSites]siteFn

func init() {
	siteFns = [numSites]siteFn{
		site00, site01, site02, site03, site04, site05, site06, site07,
		site08, site09, site10, site11, site12, site13, site14, site15,
		site16, site17, site18, site19, site20, site21, site22, site23,
		site24, site25, site26, site27, site28, site29, site30, site31,
		site32, site33, site34, site35, site36, site37, site38, site39,
		site40, site41, site42, site43, site44, site45, site46, site47,
		site48, site49, site50, site51, site52, site53, site54, site55,
		site56, site57, site58, site59, site60, site61, site62, site63,
	}
}

func site00(w *walker, path []hop) {
	m := w.mu[0]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site01(w *walker, path []hop) {
	m := w.mu[1]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site02(w *walker, path []hop) {
	m := w.mu[2]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site03(w *walker, path []hop) {
	m := w.mu[3]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site04(w *walker, path []hop) {
	m := w.mu[4]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site05(w *walker, path []hop) {
	m := w.mu[5]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site06(w *walker, path []hop) {
	m := w.mu[6]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site07(w *walker, path []hop) {
	m := w.mu[7]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site08(w *walker, path []hop) {
	m := w.mu[8]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site09(w *walker, path []hop) {
	m := w.mu[9]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site10(w *walker, path []hop) {
	m := w.mu[10]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site11(w *walker, path []hop) {
	m := w.mu[11]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site12(w *walker, path []hop) {
	m := w.mu[12]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site13(w *walker, path []hop) {
	m := w.mu[13]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site14(w *walker, path []hop) {
	m := w.mu[14]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site15(w *walker, path []hop) {
	m := w.mu[15]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site16(w *walker, path []hop) {
	m := w.mu[16]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site17(w *walker, path []hop) {
	m := w.mu[17]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site18(w *walker, path []hop) {
	m := w.mu[18]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site19(w *walker, path []hop) {
	m := w.mu[19]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site20(w *walker, path []hop) {
	m := w.mu[20]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site21(w *walker, path []hop) {
	m := w.mu[21]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site22(w *walker, path []hop) {
	m := w.mu[22]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site23(w *walker, path []hop) {
	m := w.mu[23]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site24(w *walker, path []hop) {
	m := w.mu[24]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site25(w *walker, path []hop) {
	m := w.mu[25]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site26(w *walker, path []hop) {
	m := w.mu[26]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site27(w *walker, path []hop) {
	m := w.mu[27]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site28(w *walker, path []hop) {
	m := w.mu[28]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site29(w *walker, path []hop) {
	m := w.mu[29]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site30(w *walker, path []hop) {
	m := w.mu[30]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site31(w *walker, path []hop) {
	m := w.mu[31]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site32(w *walker, path []hop) {
	m := w.mu[32]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site33(w *walker, path []hop) {
	m := w.mu[33]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site34(w *walker, path []hop) {
	m := w.mu[34]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site35(w *walker, path []hop) {
	m := w.mu[35]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site36(w *walker, path []hop) {
	m := w.mu[36]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site37(w *walker, path []hop) {
	m := w.mu[37]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site38(w *walker, path []hop) {
	m := w.mu[38]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site39(w *walker, path []hop) {
	m := w.mu[39]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site40(w *walker, path []hop) {
	m := w.mu[40]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site41(w *walker, path []hop) {
	m := w.mu[41]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site42(w *walker, path []hop) {
	m := w.mu[42]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site43(w *walker, path []hop) {
	m := w.mu[43]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site44(w *walker, path []hop) {
	m := w.mu[44]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site45(w *walker, path []hop) {
	m := w.mu[45]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site46(w *walker, path []hop) {
	m := w.mu[46]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site47(w *walker, path []hop) {
	m := w.mu[47]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site48(w *walker, path []hop) {
	m := w.mu[48]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site49(w *walker, path []hop) {
	m := w.mu[49]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site50(w *walker, path []hop) {
	m := w.mu[50]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site51(w *walker, path []hop) {
	m := w.mu[51]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site52(w *walker, path []hop) {
	m := w.mu[52]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site53(w *walker, path []hop) {
	m := w.mu[53]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site54(w *walker, path []hop) {
	m := w.mu[54]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site55(w *walker, path []hop) {
	m := w.mu[55]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site56(w *walker, path []hop) {
	m := w.mu[56]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site57(w *walker, path []hop) {
	m := w.mu[57]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site58(w *walker, path []hop) {
	m := w.mu[58]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site59(w *walker, path []hop) {
	m := w.mu[59]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site60(w *walker, path []hop) {
	m := w.mu[60]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site61(w *walker, path []hop) {
	m := w.mu[61]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site62(w *walker, path []hop) {
	m := w.mu[62]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}

func site63(w *walker, path []hop) {
	m := w.mu[63]
	if err := m.Lock(); err != nil {
		w.denied(err)
		return
	}
	w.nested(path)
	if err := m.Unlock(); err != nil {
		w.fail(err)
	}
}
