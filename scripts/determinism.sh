#!/bin/sh
# determinism.sh <class> — regenerate the rows of one class of
# results/MANIFEST (plain, workers or shape; the manifest says what
# each checks) and fail on any drift from the committed files.
#
# determinism.sh write regenerates every plain and workers row into
# results/ instead; `make results` runs it.
set -eu
cd "$(dirname "$0")/.."

mode=${1:-}
case $mode in
plain | workers | shape | write) ;;
*)
	echo "usage: $0 {plain|workers|shape|write}" >&2
	exit 2
	;;
esac

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
${GO:-go} build -o "$tmp/bin/" ./cmd/...

# gen DIR CMD [FLAG...] runs the current row's command with its
# outputs placed in DIR.
gen() {
	dir=$1
	cmd=$2
	shift 2
	stdout=
	for o in $(echo "$outputs" | tr , ' '); do
		case $o in
		-*=*) set -- "$@" "${o%%=*}=$dir/${o#*=}" ;;
		*) stdout=$dir/$o ;;
		esac
	done
	if [ -n "$stdout" ]; then
		"$tmp/bin/$cmd" "$@" </dev/null >"$stdout"
	else
		"$tmp/bin/$cmd" "$@" </dev/null
	fi
}

# files prints the current row's output file names.
files() {
	echo "$outputs" | tr , '\n' | sed 's/^-[^=]*=//'
}

# shape prints what a shape row compares: the first field of every
# line after the first, then the line count.
shape() {
	awk 'NR > 1 { print $1 } END { print NR }' "$1"
}

set -f
grep -v -e '^#' -e '^[[:space:]]*$' results/MANIFEST | while read -r class outputs command; do
	if [ "$mode" = write ]; then
		[ "$class" = shape ] || gen results $command
		continue
	fi
	[ "$class" = "$mode" ] || continue
	echo "$class: $command" >&2
	rm -rf "$tmp/1" "$tmp/8"
	mkdir "$tmp/1" "$tmp/8"
	case $class in
	workers)
		gen "$tmp/1" $command -workers 1
		gen "$tmp/8" $command -workers 8
		;;
	*) gen "$tmp/1" $command ;;
	esac
	for f in $(files); do
		case $class in
		plain) cmp "$tmp/1/$f" "results/$f" ;;
		workers)
			cmp "$tmp/1/$f" "$tmp/8/$f"
			cmp "$tmp/1/$f" "results/$f"
			;;
		shape)
			shape "$tmp/1/$f" >"$tmp/got"
			shape "results/$f" >"$tmp/want"
			cmp "$tmp/got" "$tmp/want"
			;;
		esac
	done
done
