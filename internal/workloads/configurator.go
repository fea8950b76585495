package workloads

import "strings"

// Configurator is an R1/XCON-flavored configuration system — the kind
// of expert system the paper's introduction motivates. It expands
// customer orders into components, attaches disks to controllers
// (creating controllers on demand, three channels each), assigns
// slots, accumulates the power budget, and verifies it, phase by
// phase. It exercises long modify chains, negation-driven phase
// transitions, on-demand object creation, intra-CE variable
// predicates, and arithmetic.
const Configurator = `
(literalize order id cpus disks)
(literalize phase of name)
(literalize component of type seq slot power ctrl)
(literalize controller of seq used)
(literalize budget of used max)
(literalize next-seq of n)
(literalize report of kind text)

; --- expand: unroll the order into component wmes ---

(p expand-cpu
    (phase ^of <o> ^name expand)
    (order ^id <o> ^cpus { <n> > 0 })
    (next-seq ^of <o> ^n <s>)
    -->
    (make component ^of <o> ^type cpu ^seq <s> ^slot none ^power 25)
    (modify 2 ^cpus (compute <n> - 1))
    (modify 3 ^n (compute <s> + 1)))

(p expand-disk
    (phase ^of <o> ^name expand)
    (order ^id <o> ^disks { <n> > 0 })
    (next-seq ^of <o> ^n <s>)
    -->
    (make component ^of <o> ^type disk ^seq <s> ^slot none ^power 10 ^ctrl none)
    (modify 2 ^disks (compute <n> - 1))
    (modify 3 ^n (compute <s> + 1)))

(p expand-done
    (phase ^of <o> ^name expand)
    (order ^id <o> ^cpus 0 ^disks 0)
    -->
    (modify 1 ^name controllers))

; --- controllers: every disk needs a controller channel (3 per
; controller); controllers are created on demand and are themselves
; components that occupy a slot and draw power ---

(p attach-disk
    (phase ^of <o> ^name controllers)
    (component ^of <o> ^type disk ^ctrl none)
    (controller ^of <o> ^seq <c> ^used { <u> < 3 })
    -->
    (modify 2 ^ctrl <c>)
    (modify 3 ^used (compute <u> + 1)))

(p need-controller
    (phase ^of <o> ^name controllers)
    (component ^of <o> ^type disk ^ctrl none)
    -(controller ^of <o> ^used < 3)
    (next-seq ^of <o> ^n <s>)
    -->
    (make controller ^of <o> ^seq <s> ^used 0)
    (make component ^of <o> ^type controller ^seq <s> ^slot none ^power 5 ^ctrl self)
    (modify 4 ^n (compute <s> + 1)))

(p controllers-done
    (phase ^of <o> ^name controllers)
    -(component ^of <o> ^type disk ^ctrl none)
    -->
    (modify 1 ^name place))

; --- place: every component takes the slot numbered by its sequence
; and adds its draw to the power budget ---

(p place-component
    (phase ^of <o> ^name place)
    (component ^of <o> ^slot none ^power <p> ^seq <s>)
    (budget ^of <o> ^used <u>)
    -->
    (modify 2 ^slot <s>)
    (modify 3 ^used (compute <u> + <p>)))

(p place-done
    (phase ^of <o> ^name place)
    -(component ^of <o> ^slot none)
    -->
    (modify 1 ^name verify))

; --- verify the power budget ---

(p power-exceeded
    (phase ^of <o> ^name verify)
    (budget ^of <o> ^max <m> ^used { <u> > <m> })
    -->
    (make report ^of <o> ^kind error ^text power-exceeded)
    (write order <o> power <u> exceeds budget <m>)
    (modify 1 ^name done))

(p power-ok
    (phase ^of <o> ^name verify)
    (budget ^of <o> ^max <m> ^used { <u> <= <m> })
    -->
    (make report ^of <o> ^kind ok ^text configured)
    (write order <o> configured at power <u> of <m>)
    (modify 1 ^name done))

; --- halt when every order's phase has reached done ---

(p all-done
    (phase ^of <x> ^name done)
    -(phase ^name << expand controllers place verify >>)
    -->
    (halt))
`

// ConfiguratorOrder describes one order for ConfiguratorWMEs.
type ConfiguratorOrder struct {
	ID       string
	CPUs     int
	Disks    int
	PowerMax int
}

// ConfiguratorWMEs builds the initial working memory for a set of
// orders.
func ConfiguratorWMEs(orders ...ConfiguratorOrder) string {
	var b strings.Builder
	for _, o := range orders {
		b.WriteString("(order ^id ")
		b.WriteString(o.ID)
		writef(&b, " ^cpus %d ^disks %d)\n(phase ^of ", o.CPUs, o.Disks)
		b.WriteString(o.ID)
		b.WriteString(" ^name expand)\n(budget ^of ")
		b.WriteString(o.ID)
		writef(&b, " ^used 0 ^max %d)\n(next-seq ^of ", o.PowerMax)
		b.WriteString(o.ID)
		b.WriteString(" ^n 1)\n")
	}
	return b.String()
}

// ConfiguratorComponents predicts the component count for an order:
// CPUs + disks + ceil(disks/3) controllers.
func ConfiguratorComponents(o ConfiguratorOrder) int {
	return o.CPUs + o.Disks + (o.Disks+2)/3
}

// ConfiguratorPower predicts the total power draw for an order.
func ConfiguratorPower(o ConfiguratorOrder) int {
	return 25*o.CPUs + 10*o.Disks + 5*((o.Disks+2)/3)
}
