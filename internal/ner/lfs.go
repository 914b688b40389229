package ner

import (
	"strings"

	"securitykg/internal/gazetteer"
	"securitykg/internal/labelmodel"
	"securitykg/internal/textproc"
)

// A labeling function votes one class index per token or abstains.
// These reproduce the paper's data-programming step: curated-list LFs are
// precise, contextual LFs are noisier but cover entities outside the lists,
// and the generative label model weighs them by estimated accuracy.
type labelingFunc struct {
	name string
	vote func(st *sentenceTokens, i int) int
}

// malwareSuffixes are word endings that strongly suggest a malware name.
var malwareSuffixes = []string{"bot", "locker", "crypt", "stealer", "loader",
	"rat", "duke", "worm", "miner", "kit"}

// actorCues are lemmas that precede or follow threat-actor names.
var actorCues = map[string]bool{"group": true, "actor": true, "apt": true,
	"gang": true, "crew": true, "operator": true}

// malwareCues are lemmas that follow malware names ("the X ransomware").
var malwareCues = map[string]bool{"ransomware": true, "trojan": true,
	"malware": true, "worm": true, "backdoor": true, "botnet": true,
	"campaign": true, "sample": true, "variant": true, "implant": true,
	"infection": true, "dropper": true, "loader": true, "stealer": true}

// toolCues are lemmas that precede tool names.
var toolCues = map[string]bool{"tool": true, "utility": true, "framework": true}

// defaultLabelingFuncs builds the LF set.
func defaultLabelingFuncs() []labelingFunc {
	oIdx := 0
	mal := classIndex(gazetteer.ClassMalware)
	act := classIndex(gazetteer.ClassActor)
	tool := classIndex(gazetteer.ClassTool)

	return []labelingFunc{
		// LF1: curated gazetteer lists (high accuracy, limited recall on
		// novel entities).
		{"gazetteer", func(st *sentenceTokens, i int) int {
			if c := st.gazClass[i]; c != "" {
				return classIndex(c)
			}
			return labelmodel.Abstain
		}},
		// LF2: function words, punctuation and placeholders are O.
		{"function-words", func(st *sentenceTokens, i int) int {
			t := st.toks[i]
			if st.placeholder[i] || t.IsPunct() {
				return oIdx
			}
			switch t.POS {
			case textproc.TagDT, textproc.TagIN, textproc.TagCC,
				textproc.TagPRP, textproc.TagPRPS, textproc.TagTO,
				textproc.TagMD, textproc.TagWDT, textproc.TagCD,
				textproc.TagRB, textproc.TagPunct:
				return oIdx
			}
			if textproc.IsVerbTag(t.POS) {
				return oIdx
			}
			return labelmodel.Abstain
		}},
		// LF3: malware-like suffixes on capitalized words.
		{"malware-suffix", func(st *sentenceTokens, i int) int {
			t := st.toks[i]
			if t.Text == "" || t.Text[0] < 'A' || t.Text[0] > 'Z' {
				return labelmodel.Abstain
			}
			lw := strings.ToLower(t.Text)
			for _, suf := range malwareSuffixes {
				if strings.HasSuffix(lw, suf) && len(lw) > len(suf)+1 {
					return mal
				}
			}
			return labelmodel.Abstain
		}},
		// LF4: actor context — capitalized word adjacent to an actor cue
		// ("the Sandworm group", "the actor BronzeNight").
		{"actor-context", func(st *sentenceTokens, i int) int {
			t := st.toks[i]
			if t.Text == "" || t.Text[0] < 'A' || t.Text[0] > 'Z' {
				return labelmodel.Abstain
			}
			if i > 0 && actorCues[st.toks[i-1].Lemma] {
				return act
			}
			if i+1 < len(st.toks) && actorCues[st.toks[i+1].Lemma] {
				return act
			}
			return labelmodel.Abstain
		}},
		// LF5: malware context — capitalized word followed by a malware cue
		// or preceded by a verb like "dropped".
		{"malware-context", func(st *sentenceTokens, i int) int {
			t := st.toks[i]
			if t.Text == "" || t.Text[0] < 'A' || t.Text[0] > 'Z' {
				return labelmodel.Abstain
			}
			if i+1 < len(st.toks) && malwareCues[st.toks[i+1].Lemma] {
				return mal
			}
			if i > 0 && malwareCues[st.toks[i-1].Lemma] {
				return mal
			}
			return labelmodel.Abstain
		}},
		// LF6: tool context — capitalized word after a tool cue or after
		// the lemma "use"/"using".
		{"tool-context", func(st *sentenceTokens, i int) int {
			t := st.toks[i]
			if t.Text == "" || t.Text[0] < 'A' || t.Text[0] > 'Z' {
				return labelmodel.Abstain
			}
			if i > 0 && (toolCues[st.toks[i-1].Lemma] || st.toks[i-1].Lemma == "use") {
				return tool
			}
			return labelmodel.Abstain
		}},
		// LF7: lowercase mid-sentence non-gazetteer words lean O (weak
		// prior that entities here are capitalized or curated).
		{"lowercase-o", func(st *sentenceTokens, i int) int {
			t := st.toks[i]
			if st.gazClass[i] != "" {
				return labelmodel.Abstain
			}
			if t.Text != "" && t.Text[0] >= 'a' && t.Text[0] <= 'z' &&
				textproc.Stopwords[strings.ToLower(t.Text)] {
				return oIdx
			}
			return labelmodel.Abstain
		}},
	}
}

// LabelingStrategy selects how LF votes become training labels (E6).
type LabelingStrategy string

const (
	// StrategyLabelModel fits the generative model by EM and uses MAP
	// labels — the paper's data-programming configuration.
	StrategyLabelModel LabelingStrategy = "labelmodel"
	// StrategyMajority uses unweighted majority voting.
	StrategyMajority LabelingStrategy = "majority"
	// StrategyGazetteerOnly uses only the curated-list LF.
	StrategyGazetteerOnly LabelingStrategy = "gazetteer"
)

// voteMatrix applies every LF to every token of the prepared sentences,
// returning the label matrix plus the parallel sentence/token coordinates.
func voteMatrix(sents []sentenceTokens, lfs []labelingFunc) labelmodel.Matrix {
	var m labelmodel.Matrix
	for si := range sents {
		for i := range sents[si].toks {
			row := make([]int, len(lfs))
			for j, lf := range lfs {
				row[j] = lf.vote(&sents[si], i)
			}
			m = append(m, row)
		}
	}
	return m
}

// synthesizeLabels converts LF votes into per-token class indices using the
// chosen strategy. Tokens with no signal become O.
func synthesizeLabels(sents []sentenceTokens, strategy LabelingStrategy) ([][]int, error) {
	lfs := defaultLabelingFuncs()
	if strategy == StrategyGazetteerOnly {
		lfs = lfs[:1]
	}
	matrix := voteMatrix(sents, lfs)
	k := len(classes)

	var post [][]float64
	switch strategy {
	case StrategyMajority, StrategyGazetteerOnly:
		p, err := labelmodel.MajorityVote(matrix, k)
		if err != nil {
			return nil, err
		}
		post = p
	default:
		model, err := labelmodel.Fit(matrix, k)
		if err != nil {
			return nil, err
		}
		post = model.ProbLabels(matrix)
	}

	out := make([][]int, len(sents))
	row := 0
	for si := range sents {
		labels := make([]int, len(sents[si].toks))
		for i := range sents[si].toks {
			votes := matrix[row]
			allAbstain := true
			for _, v := range votes {
				if v != labelmodel.Abstain {
					allAbstain = false
					break
				}
			}
			if allAbstain {
				labels[i] = 0 // O
			} else {
				best, bestP := 0, -1.0
				for c, p := range post[row] {
					if p > bestP {
						best, bestP = c, p
					}
				}
				labels[i] = best
			}
			row++
		}
		out[si] = labels
	}
	return out, nil
}

// propagateDocLabels relabels O tokens whose surface form was labeled as
// an entity elsewhere in the same document. Only distinctive tokens
// propagate: capitalized or digit/dot-bearing words longer than 3 runes,
// never stopwords, never gazetteer-covered tokens (those already vote).
func propagateDocLabels(sents []sentenceTokens, labels [][]int) {
	classOfTok := map[string]int{}
	for si := range sents {
		for i, tok := range sents[si].toks {
			if labels[si][i] == 0 {
				continue
			}
			if propagatable(tok.Text) {
				classOfTok[strings.ToLower(tok.Text)] = labels[si][i]
			}
		}
	}
	if len(classOfTok) == 0 {
		return
	}
	for si := range sents {
		for i, tok := range sents[si].toks {
			if labels[si][i] != 0 || sents[si].gazClass[i] != "" {
				continue
			}
			if c, ok := classOfTok[strings.ToLower(tok.Text)]; ok && propagatable(tok.Text) {
				labels[si][i] = c
			}
		}
	}
}

func propagatable(text string) bool {
	if len(text) <= 3 || textproc.Stopwords[strings.ToLower(text)] {
		return false
	}
	if text[0] >= 'A' && text[0] <= 'Z' {
		return true
	}
	return strings.ContainsAny(text, "0123456789.")
}

// toBIO converts per-token class indices into BIO tag strings.
func toBIO(labels []int) []string {
	out := make([]string, len(labels))
	for i, c := range labels {
		if c == 0 {
			out[i] = "O"
			continue
		}
		cls := string(classes[c])
		if i > 0 && labels[i-1] == c {
			out[i] = "I-" + cls
		} else {
			out[i] = "B-" + cls
		}
	}
	return out
}
